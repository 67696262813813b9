package sim

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReplayTrace feeds arbitrary CSV through ReadCSV into Replay on the
// logical 6-island D26. Every input must end in an error or in a run
// whose latencies are all finite.
func FuzzReplayTrace(f *testing.F) {
	top := synthD26(f)
	_, tr, err := RunTraced(top, Config{DurationNs: 300})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := tr.WriteCSV(&seed, top.Spec); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data), top.Spec)
		if err != nil {
			return
		}
		res, err := Replay(top, tr)
		if err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(res.MeanLatencyNs) || !finite(res.MaxLatencyNs) || !finite(res.MeanFlowLatencyCycles) {
			t.Fatalf("non-finite latency: mean %g max %g flow mean %g cycles",
				res.MeanLatencyNs, res.MaxLatencyNs, res.MeanFlowLatencyCycles)
		}
		for _, fs := range res.PerFlow {
			if !finite(fs.MeanLatencyNs) || !finite(fs.MaxLatencyNs) || !finite(fs.MeanLatencyCycles) {
				t.Fatalf("flow %d->%d: non-finite latency %+v", fs.Flow.Src, fs.Flow.Dst, fs)
			}
		}
	})
}

// FuzzSimConfig drives Run's config on the logical 6-island D26,
// synthesized once: injection scale, duration, SinglePacket and an
// off-mask drawn from the low bits of off. Every input must end in an
// error, or in a run whose latencies are finite and which sent no more
// than its planned-packet cap allows (the run may inject one packet
// more per flow than it planned).
func FuzzSimConfig(f *testing.F) {
	top := synthD26(f)
	f.Add(1.0, 0.0, false, uint8(0))
	f.Add(4.0, 3000.0, false, uint8(0b10))
	f.Add(0.0, 0.0, true, uint8(0b101))
	f.Add(1e6, 0.0, false, uint8(0)) // over the packet cap
	f.Add(1e300, 0.0, false, uint8(0))
	f.Add(1.0, math.NaN(), false, uint8(0))
	f.Fuzz(func(t *testing.T, scale, duration float64, single bool, off uint8) {
		cfg := Config{InjectionScale: scale, DurationNs: duration, SinglePacket: single}
		if off != 0 {
			cfg.Off = make([]bool, len(top.Spec.Islands))
			for i := range cfg.Off {
				cfg.Off[i] = off&(1<<i) != 0
			}
		}
		res, err := Run(top, cfg)
		if err != nil {
			return
		}
		if res.Sent > MaxPlannedPackets+len(top.Routes) {
			t.Fatalf("sent %d packets, above the cap of %d", res.Sent, MaxPlannedPackets)
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(res.MeanLatencyNs) || !finite(res.MaxLatencyNs) || !finite(res.MeanFlowLatencyCycles) {
			t.Fatalf("non-finite latency: mean %g max %g flow mean %g cycles",
				res.MeanLatencyNs, res.MaxLatencyNs, res.MeanFlowLatencyCycles)
		}
		for _, fs := range res.PerFlow {
			if !finite(fs.MeanLatencyNs) || !finite(fs.MaxLatencyNs) || !finite(fs.MeanLatencyCycles) {
				t.Fatalf("flow %d->%d: non-finite latency %+v", fs.Flow.Src, fs.Flow.Dst, fs)
			}
		}
	})
}
