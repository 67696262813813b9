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
