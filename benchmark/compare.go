package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// record is one run as -o appends it: the flags that identify the run,
// the result line it printed and its median op time.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   result  `json:"result"`
	OpP50Ms  float64 `json:"op_p50_ms"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close() //noclint:ignore errdrop besteffort: the write error is the one reported
		return err
	}
	return f.Close()
}

// readRecords loads the untraced records of a file -o wrote, keyed by
// workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// judge compares one metric over two sets of records of a workload. An
// exactPerSeed metric is compared seed by seed wherever both sets ran
// the same seed; the other metrics, and an exact one when no seed is
// shared, by verdict.
func judge(m metric, base, head []record) string {
	get := func(r record) float64 { return r.Result.Metrics[m.Name].Value }
	if bs, hs := bySeed(base, head, get); exactPerSeed[m.Name] && len(bs) > 0 {
		return exactVerdict(m, bs, hs)
	}
	values := func(rs []record) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = get(r)
		}
		return out
	}
	return verdict(m, values(base), values(head))
}

// bySeed pairs the values of the base and head runs of each seed both
// sets ran.
func bySeed(base, head []record, get func(record) float64) (bs, hs []float64) {
	baseBySeed := map[uint64]float64{}
	for _, r := range base {
		baseBySeed[r.Seed] = get(r)
	}
	for _, r := range head {
		if b, ok := baseBySeed[r.Seed]; ok {
			bs, hs = append(bs, b), append(hs, get(r))
		}
	}
	return bs, hs
}

// exactVerdict judges an exact metric by pairs of same-seed values:
// "worse" if any seed got worse at all, "better" if none did and some
// got better, else "same".
func exactVerdict(m metric, bs, hs []float64) string {
	better := false
	for i := range bs {
		d := m.worseBy(bs[i], hs[i])
		if d > 0 {
			return "worse"
		}
		better = better || d < 0
	}
	if better {
		return "better"
	}
	return "same"
}

// minRuns is the fewest runs per side, or pairs, from which a timing
// verdict is drawn; with fewer there is no spread to judge by.
const minRuns = 10

// pairedVerdict judges op_p50_ms by runs of the same seed, taken as
// pairs: "worse" or "better" when head loses or wins at least nine in
// ten pairs, ties counting for neither, and the medians differ by more
// than the quartile distance of the base runs; "same" when the medians
// differ by less than that distance; otherwise, or with fewer than
// minRuns pairs, "unresolved".
func pairedVerdict(base, head []record) string {
	bs, hs := bySeed(base, head, func(r record) float64 { return r.OpP50Ms })
	pairs := len(bs)
	if pairs < minRuns {
		return "unresolved"
	}
	var slower, faster int
	for i := range bs {
		switch {
		case hs[i] > bs[i]:
			slower++
		case hs[i] < bs[i]:
			faster++
		}
	}
	bq := quartiles(bs)
	diff, spread := quartiles(hs)[1]-bq[1], bq[2]-bq[0]
	switch {
	case 10*slower >= 9*pairs && diff > spread:
		return "worse"
	case 10*faster >= 9*pairs && -diff > spread:
		return "better"
	case math.Abs(diff) <= spread:
		return "same"
	}
	return "unresolved"
}

// verdict judges head against base for one metric: "unresolved" when
// either side has fewer than minRuns runs or a quartile spread over the
// bound (unless every head run beats every base run), otherwise "worse"
// or "better" when the medians differ by more than the bound, else
// "same".
func verdict(m metric, base, head []float64) string {
	bq, hq := quartiles(base), quartiles(head)
	spread := func(q [3]float64) float64 { return div(q[2]-q[0], q[1]) }
	if len(base) < minRuns || len(head) < minRuns {
		return "unresolved"
	}
	if spread(bq) > m.Bound || spread(hq) > m.Bound {
		if beatsAll(m, head, base) {
			return "better"
		}
		return "unresolved"
	}
	switch w := m.worseBy(bq[1], hq[1]); {
	case w > m.Bound:
		return "worse"
	case -w > m.Bound:
		return "better"
	}
	return "same"
}

// beatsAll reports whether every head value is better than every base
// value.
func beatsAll(m metric, head, base []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if m.worseBy(b, h) >= 0 {
				return false
			}
		}
	}
	return len(head) > 0 && len(base) > 0
}

// compare prints one row per workload present in both files, one verdict
// per end-to-end metric and the paired verdict on op_p50_ms, and reports
// whether any of them got worse.
func compare(basePath, headPath string, w io.Writer) (worse bool, err error) {
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return false, err
	}
	var names []string
	for wl := range base {
		if head[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s", "workload")
	for _, m := range endToEnd {
		fmt.Fprintf(w, " %s", m.Name)
	}
	fmt.Fprintln(w, " op_p50_ms(paired)")
	for _, wl := range names {
		fmt.Fprintf(w, "%-14s", wl)
		for _, m := range endToEnd {
			v := judge(m, base[wl], head[wl])
			worse = worse || v == "worse"
			fmt.Fprintf(w, " %-*s", len(m.Name), v)
		}
		v := pairedVerdict(base[wl], head[wl])
		worse = worse || v == "worse"
		fmt.Fprintln(w, "", v)
	}
	return worse, nil
}
