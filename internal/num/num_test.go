package num

import (
	"math"
	"testing"
)

func TestAlmostEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{1, 1, true},
		{0, 0, true},
		{1, 1 + 1e-12, true},      // inside tolerance
		{1, 1 + 1e-6, false},      // outside tolerance
		{1e12, 1e12 + 100, true},  // relative scaling: 100 << 1e12*Eps
		{1e12, 1e12 + 1e4, false}, // 1e4 > 1e12*Eps
		{0, 1e-12, true},          // absolute floor near zero
		{0, 1e-6, false},
		{-1, 1, false},
		{math.Inf(1), math.Inf(1), false}, // inf-inf is NaN; not equal
	}
	for _, c := range cases {
		if got := AlmostEq(c.a, c.b); got != c.want {
			t.Errorf("AlmostEq(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := AlmostEq(c.b, c.a); got != c.want {
			t.Errorf("AlmostEq(%g, %g) = %v, want %v (not symmetric)", c.b, c.a, got, c.want)
		}
	}
}

func TestWithin(t *testing.T) {
	if !Within(1.0, 1.0+5e-7, 1e-6) {
		t.Error("Within: 5e-7 gap should pass tol 1e-6")
	}
	if Within(1.0, 1.0+2e-6, 1e-6) {
		t.Error("Within: 2e-6 gap should fail tol 1e-6")
	}
}

func TestLeqGeq(t *testing.T) {
	// The capacity idiom: traffic <= cap*(1+Eps) for cap >= 1.
	capBps := 1e9
	if !Leq(capBps*(1+0.5e-9), capBps) {
		t.Error("Leq: traffic within the 1e-9 headroom must pass")
	}
	if Leq(capBps*(1+3e-9), capBps) {
		t.Error("Leq: traffic beyond the headroom must fail")
	}
	if !Leq(1, 2) || Leq(2, 1) {
		t.Error("Leq: plain ordering broken")
	}
	if !Leq(0, 0) {
		t.Error("Leq must accept equal values")
	}
}

func TestUtilizationBoundMatchesLegacyIdiom(t *testing.T) {
	// verify.Report.OK used MaxUtilization > 1+1e-9; num.Leq(u, 1)
	// must agree on either side of that boundary.
	if !Leq(1+0.9e-9, 1) {
		t.Error("utilization just inside the headroom must pass")
	}
	if Leq(1+3e-9, 1) {
		t.Error("utilization beyond the headroom must fail")
	}
}
