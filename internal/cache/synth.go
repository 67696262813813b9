package cache

import (
	"context"
	"crypto/sha256"
	"encoding/json"

	"nocvi/internal/core"
	"nocvi/internal/fault"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
	"nocvi/internal/topology"
)

// ResultKey is the content address of a full synthesis run: the spec
// and options digests combined under the engine and codec versions.
// Anything that can change the result changes the key; anything that
// provably cannot (the worker count) is excluded by OptionsDigest,
// which is what lets a -workers 8 run hit an entry produced at
// -workers 1.
func ResultKey(spec *soc.Spec, lib *model.Library, opt core.Options) specio.Digest {
	return combineDigests("nocvi-result", EngineVersion,
		[]specio.Digest{SpecDigest(spec), OptionsDigest(opt, lib)},
		[]int64{codecVersion})
}

// TopologyDigest is the content digest of a concrete routed design:
// SHA-256 over the codec's canonical topology encoding, built in one
// exact-size allocation like every other encoding.
func TopologyDigest(top *topology.Topology) specio.Digest {
	return sha256.Sum256(encodeExact(top, encodeTopology))
}

// CampaignKey addresses a fault-campaign report by the design it
// evaluates (spec, library, routed topology) and the campaign knobs
// that shape the report. Workers is excluded: the campaign folds state
// outcomes in mask order, so every worker count produces the same
// report.
func CampaignKey(top *topology.Topology, opt fault.CampaignOptions) specio.Digest {
	return combineDigests("nocvi-campaign", EngineVersion,
		[]specio.Digest{SpecDigest(top.Spec), LibraryDigest(top.Lib), TopologyDigest(top)},
		[]int64{codecVersion, int64(opt.MaxStates), int64(opt.Survivability)})
}

// Synthesize is core.SynthesizeContext behind the content-addressed
// cache. A nil store is a transparent pass-through. On a full hit the
// decoded result is byte-identical to a fresh run (CacheStats aside,
// which is run bookkeeping, zeroed in digests). On a miss the engine
// runs in full and the finished result is published for the next
// caller. Partial results (context cancellation) are never published.
func Synthesize(ctx context.Context, s *Store, spec *soc.Spec, lib *model.Library, opt core.Options) (*core.Result, error) {
	if s == nil {
		return core.SynthesizeContext(ctx, spec, lib, opt)
	}
	key := ResultKey(spec, lib, opt)
	var hit *core.Result
	if s.view(ClassResult, key, func(payload []byte) bool {
		var err error
		hit, err = DecodeResult(payload, spec, lib)
		return err == nil
	}) {
		hit.CacheStats = core.CacheStats{Hits: 1}
		return hit, nil
	}
	// A missing entry, or a checksum-valid but undecodable one (stale
	// codec): run the engine and publish over it.
	res, err := core.SynthesizeContext(ctx, spec, lib, opt)
	if res != nil {
		res.CacheStats = core.CacheStats{Misses: 1}
	}
	if err == nil && res != nil && !res.Partial {
		// besteffort: a failed publish only costs a future cache miss.
		s.putResult(key, res)
	}
	return res, err
}

// putResult encodes res into a pooled buffer and publishes it under
// key. The encoding lives only until Put has written it, so a miss
// allocates no entry-sized buffer once the pool holds one as large.
// The bytes are EncodeResult's.
func (s *Store) putResult(key specio.Digest, res *core.Result) error {
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	e := enc{b: (*buf)[:0]}
	encodeResult(&e, res)
	*buf = e.b
	return s.Put(ClassResult, key, e.b)
}

// RunCampaign is fault.RunCampaign behind the cache. Campaign reports
// are stored as JSON (they are human-auditable artifacts, already
// JSON-shaped for the CLIs); the derived per-state Off masks, excluded
// from JSON, are rebuilt against the topology on a hit.
func RunCampaign(s *Store, top *topology.Topology, opt fault.CampaignOptions) (*fault.Campaign, error) {
	if s == nil {
		return fault.RunCampaign(top, opt)
	}
	key := CampaignKey(top, opt)
	var hit *fault.Campaign
	if s.view(ClassCampaign, key, func(payload []byte) bool {
		// json.Unmarshal copies what it keeps out of payload.
		hit = &fault.Campaign{}
		return json.Unmarshal(payload, hit) == nil
	}) {
		hit.RestoreOff(top)
		return hit, nil
	}
	c, err := fault.RunCampaign(top, opt)
	if err == nil {
		if blob, jerr := json.Marshal(c); jerr == nil {
			// besteffort: a failed publish only costs a future cache miss.
			s.Put(ClassCampaign, key, blob)
		}
	}
	return c, err
}
