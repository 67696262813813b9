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
// provably cannot (the worker count) is excluded by specio.OptionsDigest,
// which is what lets a -workers 8 run hit an entry produced at
// -workers 1.
func ResultKey(spec *soc.Spec, lib *model.Library, opt core.Options) specio.Digest {
	return specio.CombineDigests("nocvi-result", EngineVersion,
		[]specio.Digest{specio.SpecDigest(spec), specio.OptionsDigest(opt, lib)},
		[]int64{codecVersion})
}

// SweepKey extends ResultKey with the streaming sweep's shape knobs.
func SweepKey(spec *soc.Spec, lib *model.Library, opt core.Options, sw core.SweepOptions) specio.Digest {
	return specio.CombineDigests("nocvi-sweep", EngineVersion,
		[]specio.Digest{specio.SpecDigest(spec), specio.OptionsDigest(opt, lib)},
		[]int64{codecVersion, int64(sw.WidthPerIsland), int64(sw.Limit), int64(sw.MaxErrors)})
}

// TopologyDigest is the content digest of a concrete routed design:
// SHA-256 over the codec's canonical topology encoding.
func TopologyDigest(top *topology.Topology) specio.Digest {
	e := &enc{}
	encodeTopology(e, top)
	return sha256.Sum256(e.b)
}

// CampaignKey addresses a fault-campaign report by the design it
// evaluates (spec, library, routed topology) and the campaign knobs
// that shape the report. Workers is excluded: the campaign folds state
// outcomes in mask order, so every worker count produces the same
// report.
func CampaignKey(top *topology.Topology, opt fault.CampaignOptions) specio.Digest {
	sim := int64(0)
	if opt.SimVerify {
		sim = 1
	}
	return specio.CombineDigests("nocvi-campaign", EngineVersion,
		[]specio.Digest{specio.SpecDigest(top.Spec), specio.LibraryDigest(top.Lib), TopologyDigest(top)},
		[]int64{codecVersion, int64(opt.MaxStates), sim, int64(opt.Survivability)})
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
	if blob, ok := s.Get(ClassResult, key); ok {
		if res, err := DecodeResult(blob, spec, lib); err == nil {
			res.CacheStats = core.CacheStats{Hits: 1}
			return res, nil
		}
		// Checksum-valid but undecodable (stale codec): treat as a miss.
	}
	res, err := core.SynthesizeContext(ctx, spec, lib, opt)
	if res != nil {
		res.CacheStats = core.CacheStats{Misses: 1}
	}
	if err == nil && res != nil && !res.Partial {
		// besteffort: a failed publish only costs a future cache miss.
		s.Put(ClassResult, key, EncodeResult(res))
	}
	return res, err
}

// SynthesizeSweep is core.SynthesizeSweep behind the cache, with the
// same contract as Synthesize.
func SynthesizeSweep(ctx context.Context, s *Store, spec *soc.Spec, lib *model.Library, opt core.Options, sw core.SweepOptions) (*core.SweepResult, error) {
	if s == nil {
		return core.SynthesizeSweep(ctx, spec, lib, opt, sw)
	}
	key := SweepKey(spec, lib, opt, sw)
	if blob, ok := s.Get(ClassSweep, key); ok {
		if res, err := DecodeSweepResult(blob, spec, lib); err == nil {
			res.CacheStats = core.CacheStats{Hits: 1}
			return res, nil
		}
	}
	res, err := core.SynthesizeSweep(ctx, spec, lib, opt, sw)
	if res != nil {
		res.CacheStats = core.CacheStats{Misses: 1}
	}
	if err == nil && res != nil && !res.Partial {
		// besteffort: a failed publish only costs a future cache miss.
		s.Put(ClassSweep, key, EncodeSweepResult(res))
	}
	return res, err
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
	if blob, ok := s.Get(ClassCampaign, key); ok {
		c := &fault.Campaign{}
		if err := json.Unmarshal(blob, c); err == nil {
			c.RestoreOff(top)
			return c, nil
		}
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
