// Canonical content digests for synthesis inputs. The on-disk result
// cache (internal/cache) keys entries by what the engine actually
// consumes — the spec, the options and the technology library — so the
// digests here define cache identity. The encoding is a hand-written
// canonical binary form, not JSON and not reflection:
//
//   - every field is emitted in one fixed order, so how a value was
//     constructed (struct literal order, JSON field order, map
//     iteration) can never change its digest;
//   - floats are emitted as their IEEE-754 bit patterns
//     (math.Float64bits), so two specs digest equal exactly when the
//     engine — which compares and sums these floats bit-for-bit — would
//     treat them identically. The JSON spec format's human units (MB/s,
//     MHz) divide through 1e6 and must never feed a digest;
//   - integers are varints and strings are length-prefixed, making
//     every encoding a prefix code: distinct field sequences can never
//     collide by concatenation.
//
// Golden digest tests (digest_test.go) pin the byte layout: any
// unintended change to the encoding — a reordered field, a lost
// normalization — breaks a test rather than silently splitting or, far
// worse, aliasing cache keys.
package specio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/vcg"
)

// Digest is a 32-byte SHA-256 content digest.
type Digest [32]byte

// String returns the digest in lower-case hex — the cache's on-disk
// entry name.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns the first 12 hex characters, for logs and reports.
func (d Digest) Short() string { return hex.EncodeToString(d[:6]) }

// denc accumulates the canonical binary encoding that is digested.
type denc struct {
	b []byte
}

func (e *denc) u64(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *denc) i64(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *denc) int(v int)     { e.i64(int64(v)) }
func (e *denc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

func (e *denc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *denc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *denc) ints(vs []int) {
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.int(v)
	}
}

func (e *denc) sum() Digest { return sha256.Sum256(e.b) }

// SpecDigest returns the canonical digest of a synthesis problem
// instance. Everything the engine reads is covered: cores (including
// names — they surface in reports and campaign state labels), flows in
// spec order (flow order feeds VCG edge-accumulation order and is
// therefore result-significant), islands and the core-to-island
// assignment.
func SpecDigest(s *soc.Spec) Digest {
	e := &denc{}
	e.str("nocvi-spec-v1")
	e.str(s.Name)
	e.u64(uint64(len(s.Islands)))
	for _, isl := range s.Islands {
		e.str(isl.Name)
		e.f64(isl.VoltageV)
		e.bool(isl.Shutdownable)
	}
	e.u64(uint64(len(s.Cores)))
	for _, c := range s.Cores {
		e.str(c.Name)
		e.int(int(c.Class))
		e.f64(c.AreaMM2)
		e.f64(c.FreqHz)
		e.f64(c.DynPowerW)
		e.f64(c.LeakPowerW)
	}
	e.u64(uint64(len(s.IslandOf)))
	for _, id := range s.IslandOf {
		e.int(int(id))
	}
	e.u64(uint64(len(s.Flows)))
	for _, f := range s.Flows {
		e.int(int(f.Src))
		e.int(int(f.Dst))
		e.f64(f.BandwidthBps)
		e.f64(f.MaxLatencyCycles)
	}
	return e.sum()
}

// LibraryDigest returns the canonical digest of a technology library.
// Every coefficient participates: the CLIs mutate LinkWidthBits and
// whole node presets, and every one of these numbers reaches a power,
// area, frequency or delay result.
func LibraryDigest(l *model.Library) Digest {
	e := &denc{}
	e.str("nocvi-lib-v1")
	encodeLibrary(e, l)
	return e.sum()
}

func encodeLibrary(e *denc, l *model.Library) {
	e.int(l.LinkWidthBits)
	e.f64(l.NominalVoltage)
	e.f64(l.FreqGridHz)
	e.f64(l.MaxFreqA)
	e.f64(l.MaxFreqB)
	e.f64(l.SwitchEnergyBase)
	e.f64(l.SwitchEnergyPerPort)
	e.f64(l.SwitchIdlePerPortHz)
	e.f64(l.SwitchLeakPerPort)
	e.f64(l.SwitchAreaBase)
	e.f64(l.SwitchAreaPerPort2)
	e.f64(l.LinkEnergyPerBitMM)
	e.f64(l.LinkLeakPerMMPerBit)
	e.f64(l.WireDelayNsPerMM)
	e.f64(l.NIEnergyPerBit)
	e.f64(l.NILeak)
	e.f64(l.NIAreaMM2)
	e.f64(l.FIFOEnergyPerBit)
	e.f64(l.FIFOLeak)
	e.f64(l.FIFOAreaMM2)
}

// OptionsDigest returns the canonical digest of a synthesis
// configuration: the core options that influence results, folded
// together with the technology library the run uses.
//
// Two classes of fields are deliberately normalized or excluded:
//
//   - unset sentinels are resolved to the defaults the engine resolves
//     them to (Alpha 0 → vcg.DefaultAlpha, IntermediateVoltage ≤ 0 →
//     1.0 V), so an explicit default and an implicit one share one
//     cache entry;
//   - fields the engine guarantees are result-neutral are excluded:
//     Workers (every worker count yields byte-identical results — the
//     guarantee the identity tests pin). Excluding it is what makes a
//     cache entry written at -workers 8 a legitimate hit at -workers 1.
//     Router.Survivability is likewise excluded: the engine normalizes
//     the canonical Options.Survivability over it, so encoding both
//     would double-count one knob.
//
// v3 added Options.Survivability (the k disjoint-backup-routes
// constraint), which changes results whenever nonzero.
func OptionsDigest(opt core.Options, lib *model.Library) Digest {
	e := &denc{}
	e.str("nocvi-opt-v3")
	alpha := opt.Alpha
	if alpha == 0 { //noclint:ignore floateq 0 is the documented unset sentinel for Alpha, resolved like Options.alpha does
		alpha = vcg.DefaultAlpha
	}
	e.f64(alpha)
	e.bool(opt.AllowIntermediate)
	e.int(opt.MaxIntermediateSwitches)
	midV := opt.IntermediateVoltage
	if midV <= 0 {
		midV = 1.0
	}
	e.f64(midV)
	e.int(opt.MaxDesignPoints)
	e.f64(opt.Router.EstLinkLengthMM)
	e.f64(opt.Router.LatencyWeightW)
	e.bool(opt.Router.MaxSwitchSize != nil)
	e.ints(opt.Router.MaxSwitchSize)
	e.bool(opt.Router.NoNewLinks)
	e.bool(opt.Router.BalanceLoad)
	e.f64(opt.Floorplan.WhitespaceFrac)
	e.bool(opt.Floorplan.SkipAnnotate)
	e.int(opt.Partition.MaxPartSize)
	e.int(opt.Partition.Passes)
	e.bool(opt.SpectralPartition)
	e.bool(opt.AutoVoltage)
	e.bool(opt.NoPrune)
	e.bool(opt.Relax)
	surv := opt.Survivability
	if surv < 0 {
		surv = 0 // the engine clamps negatives to the k=0 behaviour
	}
	e.int(surv)
	encodeLibrary(e, lib)
	return e.sum()
}

// CombineDigests folds a tagged sequence of digests (and a trailing
// varint sequence) into one key. The cache layer uses it to derive
// class-specific keys like H(tag, engine version, spec, options).
func CombineDigests(tag string, version int, ds []Digest, extra []int64) Digest {
	e := &denc{}
	e.str(tag)
	e.int(version)
	e.u64(uint64(len(ds)))
	for _, d := range ds {
		e.b = append(e.b, d[:]...)
	}
	e.u64(uint64(len(extra)))
	for _, v := range extra {
		e.i64(v)
	}
	return e.sum()
}
