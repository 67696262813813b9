// Canonical content digests for synthesis inputs. The store keys
// entries by what the engine actually consumes — the spec, the
// normalized options and the technology library — so the digests here
// define cache identity. They are written with the codec's encoder
// (enc), each in one exact-size allocation:
//
//   - every field is emitted in one fixed order, so how a value was
//     constructed (struct literal order, JSON field order, map
//     iteration) can never change its digest;
//   - floats are emitted as their IEEE-754 bit patterns, so two specs
//     digest equal exactly when the engine — which compares and sums
//     these floats bit-for-bit — would treat them identically. The JSON
//     spec format's human units (MB/s, MHz) divide through 1e6 and must
//     never feed a digest;
//   - integers are varints and strings are length-prefixed, making
//     every encoding a prefix code: distinct field sequences can never
//     collide by concatenation.
//
// Golden digest tests (digest_test.go) pin the byte layout: any
// unintended change to the encoding — a reordered field, a lost
// normalization — breaks a test rather than silently splitting or, far
// worse, aliasing cache keys.
package cache

import (
	"crypto/sha256"

	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
)

// SpecDigest returns the canonical digest of a synthesis problem
// instance. Everything the engine reads is covered: cores (including
// names — they surface in reports and campaign state labels), flows in
// spec order (flow order feeds VCG edge-accumulation order and is
// therefore result-significant), islands and the core-to-island
// assignment.
func SpecDigest(s *soc.Spec) specio.Digest {
	return sha256.Sum256(encodeExact(s, encodeSpec))
}

func encodeSpec(e *enc, s *soc.Spec) {
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
}

// LibraryDigest returns the canonical digest of a technology library.
// Every coefficient participates: the CLIs mutate LinkWidthBits and
// whole node presets, and every one of these numbers reaches a power,
// area, frequency or delay result.
func LibraryDigest(l *model.Library) specio.Digest {
	return sha256.Sum256(encodeExact(l, func(e *enc, l *model.Library) {
		e.str("nocvi-lib-v1")
		encodeLibrary(e, l)
	}))
}

func encodeLibrary(e *enc, l *model.Library) {
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

// optionsInput is what OptionsDigest encodes: normalized options and
// the library the run uses.
type optionsInput struct {
	opt core.Options
	lib *model.Library
}

// OptionsDigest returns the canonical digest of a synthesis
// configuration: the result-relevant fields of opt.Normalized(), folded
// together with the technology library the run uses. Normalizing first
// makes an explicit default and an implicit one share one cache entry.
//
// Fields the engine guarantees are result-neutral are excluded: Workers
// (every worker count yields byte-identical results — the guarantee the
// identity tests pin), which is what makes a cache entry written at
// -workers 8 a legitimate hit at -workers 1; and Router.Survivability,
// which Normalized overwrites with Survivability, so encoding both
// would double-count one knob. A change to the encoded fields bumps the
// tag (nocvi-opt-v5) and re-pins the goldens.
func OptionsDigest(opt core.Options, lib *model.Library) specio.Digest {
	in := optionsInput{opt.Normalized(), lib}
	return sha256.Sum256(encodeExact(&in, encodeOptions))
}

func encodeOptions(e *enc, in *optionsInput) {
	o := &in.opt
	e.str("nocvi-opt-v5")
	e.f64(o.Alpha)
	e.bool(o.AllowIntermediate)
	e.int(o.MaxIntermediateSwitches)
	e.f64(o.IntermediateVoltage)
	e.bool(o.Router.NoNewLinks)
	e.f64(o.Floorplan.WhitespaceFrac)
	e.bool(o.Floorplan.SkipAnnotate)
	e.int(o.Partition.MaxPartSize)
	e.bool(o.AutoVoltage)
	e.bool(o.NoPrune)
	e.bool(o.Relax)
	e.int(o.Survivability)
	encodeLibrary(e, in.lib)
}

// keyInput is what combineDigests encodes.
type keyInput struct {
	tag     string
	version int
	ds      []specio.Digest
	extra   []int64
}

// combineDigests folds a tagged sequence of digests (and a trailing
// varint sequence) into one key: H(tag, engine version, digests,
// extra). ResultKey and CampaignKey derive their keys through it.
func combineDigests(tag string, version int, ds []specio.Digest, extra []int64) specio.Digest {
	in := keyInput{tag, version, ds, extra}
	return sha256.Sum256(encodeExact(&in, encodeKey))
}

func encodeKey(e *enc, in *keyInput) {
	e.str(in.tag)
	e.int(in.version)
	e.u64(uint64(len(in.ds)))
	for i := range in.ds {
		e.raw(in.ds[i][:])
	}
	e.u64(uint64(len(in.extra)))
	for _, v := range in.extra {
		e.i64(v)
	}
}
