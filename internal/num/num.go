// Package num holds the tolerance helpers the engine's constraint
// checks compare floats with. Exact ==/!= between floats flips on the
// last ulp of an accumulation — and the synthesis argmin then picks a
// different design point on different hardware — so the floateq
// analyzer (internal/analysis) flags exact comparisons and points
// here. The helpers use a relative-plus-absolute tolerance: two values
// are close when they differ by at most Eps scaled by the larger
// magnitude, with a floor of Eps near zero.
package num

import "math"

// Eps is the default comparison tolerance. It matches the 1e-9
// headroom factor the bandwidth-capacity checks in route, mesh and
// verify have always used (capacity*(1+1e-9)).
const Eps = 1e-9

// scale returns the tolerance magnitude for comparing a and b:
// Eps relative to the larger magnitude, never below Eps itself.
func scale(a, b float64) float64 {
	m := math.Abs(a)
	if ab := math.Abs(b); ab > m {
		m = ab
	}
	if m < 1 {
		m = 1
	}
	return Eps * m
}

// AlmostEq reports a == b within the default tolerance.
func AlmostEq(a, b float64) bool { return math.Abs(a-b) <= scale(a, b) }

// Within reports |a-b| <= tol, an explicit absolute tolerance.
func Within(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Leq reports a <= b within the default tolerance: a may exceed b by
// the comparison scale before it counts as greater. For b > 0 this is
// the same headroom as the long-standing a <= b*(1+Eps) capacity
// idiom, extended to behave sanely at and below zero.
func Leq(a, b float64) bool { return a <= b+scale(a, b) }
