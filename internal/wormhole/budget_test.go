package wormhole

import (
	"errors"
	"math"
	"testing"
)

// TestRunRefusesBudget drives Run with configs over each cap, the
// extreme ints among them, on the D26 design. Each must come back as a
// *BudgetError naming its cap, with the error the only allocation: no
// buffer, packet or schedule is built for a refused config.
func TestRunRefusesBudget(t *testing.T) {
	top := synthD26(t)
	routes := len(top.Routes)
	for _, c := range []struct {
		name string
		cfg  Config
		what string
	}{
		{"buffer+1", Config{BufferFlits: MaxBufferFlits + 1}, "BufferFlits"},
		{"buffer-maxint", Config{BufferFlits: math.MaxInt}, "BufferFlits"},
		{"packets+1", Config{PacketsPerFlow: MaxPackets/routes + 1}, "PacketsPerFlow × routes"},
		{"packets-maxint", Config{PacketsPerFlow: math.MaxInt}, "PacketsPerFlow × routes"},
		{"gap-maxcycles", Config{PacketsPerFlow: 2, InjectionGapCycles: MaxCycles}, "last injection cycle"},
		{"gap-maxint", Config{PacketsPerFlow: 2, InjectionGapCycles: math.MaxInt}, "last injection cycle"},
	} {
		var err error
		allocs := testing.AllocsPerRun(5, func() { _, err = Run(top, c.cfg) })
		var be *BudgetError
		if !errors.As(err, &be) || be.What != c.what || be.Value < float64(be.Cap) {
			t.Fatalf("%s: got %v, want a *BudgetError for %s", c.name, err, c.what)
		}
		if allocs != 1 {
			t.Fatalf("%s: a refused run allocated %v times, want 1 (the error)", c.name, allocs)
		}
	}
}

// TestBudgetBoundaries checks each cap at its edge through the budget
// check alone, so nothing of the size of a cap is ever allocated.
func TestBudgetBoundaries(t *testing.T) {
	const routes = 40
	for _, c := range []struct {
		cfg  Config
		over bool
	}{
		{Config{BufferFlits: MaxBufferFlits}, false},
		{Config{BufferFlits: MaxBufferFlits + 1}, true},
		{Config{PacketsPerFlow: MaxPackets / routes}, false},
		{Config{PacketsPerFlow: MaxPackets/routes + 1}, true},
		// The last injection is packet 1 of route 4: gap + 4.
		{Config{PacketsPerFlow: 2, InjectionGapCycles: MaxCycles - 5}, false},
		{Config{PacketsPerFlow: 2, InjectionGapCycles: MaxCycles - 4}, true},
		// One packet per flow is scheduled at the stagger alone.
		{Config{PacketsPerFlow: 1, InjectionGapCycles: math.MaxInt}, false},
		// The largest config the experiments and tests run.
		{Config{BufferFlits: 8, PacketsPerFlow: 8}, false},
	} {
		err := c.cfg.budget(routes)
		if (err != nil) != c.over {
			t.Fatalf("%+v over %d routes: budget error %v, want over=%v", c.cfg, routes, err, c.over)
		}
	}
}
