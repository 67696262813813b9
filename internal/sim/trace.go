package sim

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// PacketRecord is one delivered packet in a trace.
type PacketRecord struct {
	Src, Dst  soc.CoreID
	InjectNs  float64
	ArriveNs  float64
	LatencyNs float64
}

// Trace is a time-ordered packet log of a simulation run.
type Trace struct {
	Packets []PacketRecord
}

// RunTraced simulates like Run but additionally records every delivered
// packet. Traces of long runs are large; keep DurationNs moderate.
func RunTraced(top *topology.Topology, cfg Config) (*Result, *Trace, error) {
	tr := &Trace{}
	res, err := runInternal(top, cfg, func(r PacketRecord) {
		tr.Packets = append(tr.Packets, r)
	})
	if err != nil {
		return nil, nil, err
	}
	sort.SliceStable(tr.Packets, func(i, j int) bool {
		if tr.Packets[i].InjectNs != tr.Packets[j].InjectNs { //noclint:ignore floateq exact sort tie-break keeps trace order deterministic
			return tr.Packets[i].InjectNs < tr.Packets[j].InjectNs
		}
		if tr.Packets[i].Src != tr.Packets[j].Src {
			return tr.Packets[i].Src < tr.Packets[j].Src
		}
		return tr.Packets[i].Dst < tr.Packets[j].Dst
	})
	return res, tr, nil
}

// WriteCSV exports the trace with core names resolved against the spec.
func (t *Trace) WriteCSV(w io.Writer, spec *soc.Spec) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"src", "dst", "inject_ns", "arrive_ns", "latency_ns"}); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'f', 3, 64) }
	for _, p := range t.Packets {
		rec := []string{
			spec.Cores[p.Src].Name, spec.Cores[p.Dst].Name,
			f(p.InjectNs), f(p.ArriveNs), f(p.LatencyNs),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV, resolving core names.
func ReadCSV(r io.Reader, spec *soc.Spec) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("sim: trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	tr := &Trace{}
	for i, row := range rows[1:] {
		if len(row) != 5 {
			return nil, fmt.Errorf("sim: trace row %d has %d fields", i+1, len(row))
		}
		src, ok := spec.CoreByName(row[0])
		if !ok {
			return nil, fmt.Errorf("sim: trace row %d: unknown core %q", i+1, row[0])
		}
		dst, ok := spec.CoreByName(row[1])
		if !ok {
			return nil, fmt.Errorf("sim: trace row %d: unknown core %q", i+1, row[1])
		}
		var vals [3]float64
		for k := 0; k < 3; k++ {
			v, err := strconv.ParseFloat(row[2+k], 64)
			if err != nil {
				return nil, fmt.Errorf("sim: trace row %d: %w", i+1, err)
			}
			vals[k] = v
		}
		tr.Packets = append(tr.Packets, PacketRecord{
			Src: src.ID, Dst: dst.ID,
			InjectNs: vals[0], ArriveNs: vals[1], LatencyNs: vals[2],
		})
	}
	return tr, nil
}

// Replay re-injects the trace's packets at their recorded times on a
// (possibly different) topology and returns the resulting run. Every
// (src,dst) pair in the trace must have a route and every injection
// time must be finite; latencies come out of the target network,
// enabling apples-to-apples topology comparisons under identical
// offered traffic.
func Replay(top *topology.Topology, tr *Trace) (*Result, error) {
	if len(tr.Packets) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	routeOf := map[[2]soc.CoreID]int{}
	for ri := range top.Routes {
		routeOf[[2]soc.CoreID{top.Routes[ri].Flow.Src, top.Routes[ri].Flow.Dst}] = ri
	}
	times := make([][]float64, len(top.Routes))
	for i, p := range tr.Packets {
		ri, ok := routeOf[[2]soc.CoreID{p.Src, p.Dst}]
		if !ok {
			return nil, fmt.Errorf("sim: trace packet %d: no route %d->%d in target topology", i, p.Src, p.Dst)
		}
		if math.IsNaN(p.InjectNs) || math.IsInf(p.InjectNs, 0) {
			return nil, fmt.Errorf("sim: trace packet %d: injection time %g ns is not finite", i, p.InjectNs)
		}
		times[ri] = append(times[ri], p.InjectNs)
	}
	for _, ts := range times {
		sort.Float64s(ts)
	}
	return runInternal(top, Config{replay: times}, nil)
}
