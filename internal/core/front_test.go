package core

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"nocvi/internal/model"
)

// refParetoPoint and refParetoFront are the module's former second
// Pareto-front implementation, frozen as the oracle ParetoFront must
// match. Do not "improve" them: their value is that they select the
// front the way the deleted code did.
type refParetoPoint struct {
	Index int
	X, Y  float64
}

// refParetoFront returns the non-dominated subset, sorted by ascending X
// (and descending Y along the front). Duplicate coordinates keep the
// earliest index. The input is not modified.
func refParetoFront(points []refParetoPoint) []refParetoPoint {
	if len(points) == 0 {
		return nil
	}
	sorted := append([]refParetoPoint(nil), points...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		if sorted[i].Y != sorted[j].Y {
			return sorted[i].Y < sorted[j].Y
		}
		return sorted[i].Index < sorted[j].Index
	})
	var front []refParetoPoint
	bestY := 0.0
	for i, p := range sorted {
		if i == 0 || p.Y < bestY {
			// Skip exact duplicates of the previous front point.
			if len(front) > 0 && front[len(front)-1].X == p.X && front[len(front)-1].Y == p.Y {
				continue
			}
			front = append(front, p)
			bestY = p.Y
		}
	}
	return front
}

// TestParetoFrontMatchesFrozenReference: on every design point of the
// identity population's exhaustive sweeps, ParetoFront selects the
// frozen reference's front — same indices, bit-equal power and latency,
// same order.
func TestParetoFrontMatchesFrozenReference(t *testing.T) {
	lib := model.Default65nm()
	total := 0
	for _, spec := range identitySpecs(t) {
		res, err := Synthesize(spec, lib, identityOpt)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ref := make([]refParetoPoint, len(res.Points))
		pts := make([]SweepPoint, len(res.Points))
		for i := range res.Points {
			x, y := res.Points[i].NoCPower.DynW(), res.Points[i].MeanLatencyCycles
			ref[i] = refParetoPoint{Index: i, X: x, Y: y}
			pts[i] = SweepPoint{Index: uint64(i), PowerW: x, LatencyCycles: y}
		}
		want, got := refParetoFront(ref), ParetoFront(pts)
		if len(got) != len(want) {
			t.Fatalf("%s: front has %d points, reference %d", spec.Name, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Index != uint64(w.Index) || math.Float64bits(g.PowerW) != math.Float64bits(w.X) ||
				math.Float64bits(g.LatencyCycles) != math.Float64bits(w.Y) {
				t.Fatalf("%s: front[%d] = #%d (%v, %v), reference #%d (%v, %v)",
					spec.Name, i, g.Index, g.PowerW, g.LatencyCycles, w.Index, w.X, w.Y)
			}
		}
		total += len(res.Points)
	}
	t.Logf("fronts identical over %d design points", total)
}

func sweepPoints(coords ...[3]float64) []SweepPoint {
	pts := make([]SweepPoint, len(coords))
	for i, c := range coords {
		pts[i] = SweepPoint{Index: uint64(c[0]), PowerW: c[1], LatencyCycles: c[2]}
	}
	return pts
}

func TestParetoFrontBasic(t *testing.T) {
	f := ParetoFront(sweepPoints(
		[3]float64{0, 1, 10}, [3]float64{1, 2, 5}, [3]float64{2, 3, 6}, // 2 dominated by 1
		[3]float64{3, 4, 1}, [3]float64{4, 5, 0.5}, [3]float64{5, 0.5, 20},
	))
	want := []uint64{5, 0, 1, 3, 4}
	if len(f) != len(want) {
		t.Fatalf("front = %v", f)
	}
	for i, p := range f {
		if p.Index != want[i] {
			t.Fatalf("front[%d] = %+v, want index %d", i, p, want[i])
		}
		if i > 0 && (f[i].PowerW < f[i-1].PowerW || f[i].LatencyCycles > f[i-1].LatencyCycles) {
			t.Fatal("front not monotone")
		}
	}
}

func TestParetoFrontEdgeCases(t *testing.T) {
	if ParetoFront(nil) != nil {
		t.Fatal("empty front")
	}
	one := ParetoFront(sweepPoints([3]float64{7, 3, 3}))
	if len(one) != 1 || one[0].Index != 7 {
		t.Fatal("singleton front")
	}
	// exact duplicates collapse to the earliest index
	dup := ParetoFront(sweepPoints([3]float64{1, 2, 2}, [3]float64{0, 2, 2}))
	if len(dup) != 1 || dup[0].Index != 0 {
		t.Fatalf("duplicates: %v", dup)
	}
}

// dominates reports whether a is at least as good as b in both
// objectives and strictly better in one.
func dominates(a, b SweepPoint) bool {
	return a.PowerW <= b.PowerW && a.LatencyCycles <= b.LatencyCycles &&
		(a.PowerW < b.PowerW || a.LatencyCycles < b.LatencyCycles)
}

// Property: no front member is dominated by any input point, and every
// input point is dominated-or-equal by some front member.
func TestParetoFrontProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		pts := make([]SweepPoint, len(raw))
		for i, r := range raw {
			pts[i] = SweepPoint{Index: uint64(i), PowerW: float64(r % 97), LatencyCycles: float64((r / 97) % 89)}
		}
		front := ParetoFront(append([]SweepPoint(nil), pts...))
		for _, fp := range front {
			for _, p := range pts {
				if dominates(p, fp) {
					return false
				}
			}
		}
		for _, p := range pts {
			covered := false
			for _, fp := range front {
				if dominates(fp, p) || (fp.PowerW == p.PowerW && fp.LatencyCycles == p.LatencyCycles) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalFrontMatchesParetoFront: the streaming collector's
// front, grown one point at a time, is ParetoFront of the points it was
// given, in every insertion order. Power and latency are drawn from a
// handful of values, so ties in power, ties in latency and identical
// pairs under different indices are common. Each point arrives with
// switch counts in one shared buffer that the next point overwrites, as
// an arena's would be, so every kept point must own a copy.
func TestIncrementalFrontMatchesParetoFront(t *testing.T) {
	f := func(raw []uint8, seed uint64) bool {
		pts := make([]SweepPoint, len(raw))
		for i, r := range raw {
			pts[i] = SweepPoint{Index: uint64(i), PowerW: float64(r % 5), LatencyCycles: float64(r / 5 % 5)}
		}
		want := ParetoFront(slices.Clone(pts))
		for order := 0; order < 4; order++ {
			shuffle(pts, &seed)
			var sc sweepCollector
			arena := []int{0}
			for _, p := range pts {
				arena[0] = int(p.Index)
				p.SwitchCounts = arena
				sc.addFront(p)
			}
			if len(sc.front) != len(want) {
				t.Logf("order %d: front has %d points, ParetoFront %d", order, len(sc.front), len(want))
				return false
			}
			for i, g := range sc.front {
				w := want[i]
				if g.Index != w.Index || g.PowerW != w.PowerW || g.LatencyCycles != w.LatencyCycles ||
					g.SwitchCounts[0] != int(g.Index) {
					t.Logf("order %d: front[%d] = %+v, ParetoFront's %+v", order, i, g, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// shuffle permutes pts in place (Fisher-Yates over a splitmix64 stream
// seeded by *state).
func shuffle(pts []SweepPoint, state *uint64) {
	for i := len(pts) - 1; i > 0; i-- {
		*state += 0x9e3779b97f4a7c15
		z := *state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		j := int(z % uint64(i+1))
		pts[i], pts[j] = pts[j], pts[i]
	}
}
