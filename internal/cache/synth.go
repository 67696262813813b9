package cache

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"sync/atomic"

	"nocvi/internal/core"
	"nocvi/internal/fault"
	"nocvi/internal/model"
	"nocvi/internal/partition"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
	"nocvi/internal/topology"
	"nocvi/internal/vcg"
)

// ResultKey is the content address of a full synthesis run: the spec
// and options digests combined under the engine and codec versions.
// Anything that can change the result changes the key; anything that
// provably cannot (worker count, backing wiring) is excluded by
// specio.OptionsDigest, which is what lets a -workers 8 run hit an
// entry produced at -workers 1.
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

// resolvedAlpha mirrors core's treatment of the Alpha option: zero is
// the unset sentinel and resolves to the paper's default.
func resolvedAlpha(opt core.Options) float64 {
	if opt.Alpha == 0 { //noclint:ignore floateq 0 is the documented unset sentinel for Alpha, resolved exactly like core's Options.alpha
		return vcg.DefaultAlpha
	}
	return opt.Alpha
}

// islandBacking persists one island's partition table in the store. It
// implements partition.Backing over keys derived from the island's VCG
// digest — the exact inputs (local flow structure, spec-wide
// normalization extrema, alpha) that determine the partitioner's graph
// — plus the engine selection and the clamped partition options core
// hands the factory. Edits to other islands leave the VCG digest, and
// therefore every key, unchanged: that is the warm-start property.
type islandBacking struct {
	s        *Store
	base     specio.Digest
	spectral int64
	pOpt     partition.Options
	warm     *atomic.Int64
}

func (b *islandBacking) key(k int) specio.Digest {
	return specio.CombineDigests("nocvi-part", EngineVersion,
		[]specio.Digest{b.base},
		[]int64{b.spectral, int64(b.pOpt.MaxPartSize), int64(b.pOpt.Passes), int64(k)})
}

func (b *islandBacking) Load(k int) ([]int, bool) {
	blob, ok := b.s.Get(ClassPartition, b.key(k))
	if !ok {
		return nil, false
	}
	part, err := decodePartition(blob)
	if err != nil {
		return nil, false // malformed payload degrades to a miss
	}
	b.warm.Add(1)
	return part, true
}

func (b *islandBacking) Store(k int, part []int) {
	e := &enc{}
	e.u64(codecVersion)
	e.ints(part)
	// besteffort: a failed partition publish only costs a future warm-start.
	b.s.Put(ClassPartition, b.key(k), e.b)
}

func decodePartition(blob []byte) ([]int, error) {
	d := &dec{b: blob}
	if v := d.u64(); d.err == nil && v != codecVersion {
		return nil, errCorrupt
	}
	part := d.ints()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, errCorrupt
	}
	return part, nil
}

// partitionBacking builds the core.Options.PartitionBacking factory for
// one run: a per-island disk backing sharing one warm-start counter.
// Returns nil when the store is nil, leaving the engine's behaviour
// untouched.
func partitionBacking(s *Store, spec *soc.Spec, opt core.Options, warm *atomic.Int64) func(int, partition.Options) partition.Backing {
	if s == nil {
		return nil
	}
	alpha := resolvedAlpha(opt)
	spectral := int64(0)
	if opt.SpectralPartition {
		spectral = 1
	}
	return func(island int, pOpt partition.Options) partition.Backing {
		return &islandBacking{
			s:        s,
			base:     specio.IslandVCGDigest(spec, soc.IslandID(island), alpha),
			spectral: spectral,
			pOpt:     pOpt,
			warm:     warm,
		}
	}
}

// Synthesize is core.SynthesizeContext behind the content-addressed
// cache. A nil store is a transparent pass-through. On a full hit the
// decoded result is byte-identical to a fresh run (CacheStats aside,
// which is run bookkeeping, zeroed in digests). On a miss the engine
// runs with a disk-backed partition layer, so islands whose VCGs are
// unchanged since any earlier run warm-start from their cached
// partition tables; the finished result is then published for the next
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
	var warm atomic.Int64
	if opt.PartitionBacking == nil {
		opt.PartitionBacking = partitionBacking(s, spec, opt, &warm)
	}
	res, err := core.SynthesizeContext(ctx, spec, lib, opt)
	if res != nil {
		res.CacheStats = core.CacheStats{Misses: 1, WarmStarts: int(warm.Load())}
	}
	if err == nil && res != nil && !res.Partial {
		// besteffort: a failed publish only costs a future cache miss.
		s.Put(ClassResult, key, EncodeResult(res))
	}
	return res, err
}

// SynthesizeSweep is core.SynthesizeSweep behind the cache, with the
// same contract as Synthesize. The sweep resolves its per-island
// partition table lazily, one (island, switch count) cut at a time as
// candidates first need it, and every cut goes through the disk-backed
// partition layer: a repeated sweep whose spec and options are
// unchanged — but whose key differs (say a different Limit) —
// warm-starts every cut an earlier sweep already made and only
// computes the ones it is first to reach.
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
	var warm atomic.Int64
	if opt.PartitionBacking == nil {
		opt.PartitionBacking = partitionBacking(s, spec, opt, &warm)
	}
	res, err := core.SynthesizeSweep(ctx, spec, lib, opt, sw)
	if res != nil {
		res.CacheStats = core.CacheStats{Misses: 1, WarmStarts: int(warm.Load())}
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
