package netlist

import (
	"regexp"
	"strings"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/viplace"
)

func synth(t *testing.T) *core.DesignPoint {
	t.Helper()
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{
		AllowIntermediate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best()
}

func TestGenerateStructure(t *testing.T) {
	dp := synth(t)
	v, err := Generate(dp.Top, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// All four module kinds present, balanced with endmodule.
	for _, m := range []string{"module noc_ni", "module noc_switch", "module noc_bisync_fifo", "module noc_top"} {
		if !strings.Contains(v, m) {
			t.Fatalf("missing %q", m)
		}
	}
	if strings.Count(v, "module ")-strings.Count(v, "endmodule") != 0 {
		t.Fatalf("unbalanced module/endmodule: %d vs %d",
			strings.Count(v, "module "), strings.Count(v, "endmodule"))
	}
	// One NI instance per core (instances are indented; the module
	// definition is not).
	inst := func(mod string) int {
		return len(regexp.MustCompile(`(?m)^\s+`+mod+` #\(`).FindAllString(v, -1))
	}
	if n := inst("noc_ni"); n != len(dp.Top.Spec.Cores) {
		t.Fatalf("NI instances = %d, want %d", n, len(dp.Top.Spec.Cores))
	}
	// One converter per crossing link.
	crossings := 0
	for _, l := range dp.Top.Links {
		if dp.Top.CrossesIslands(l.From, l.To) {
			crossings++
		}
	}
	if n := inst("noc_bisync_fifo"); n != crossings {
		t.Fatalf("converter instances = %d, want %d", n, crossings)
	}
	// Every island clock appears as a port.
	for i := 0; i < dp.Top.NumIslands(); i++ {
		if !strings.Contains(v, "clk_isl"+itoa(i)) {
			t.Fatalf("clock for island %d missing", i)
		}
	}
	// Every core contributes its named ports.
	for _, c := range dp.Top.Spec.Cores {
		if !strings.Contains(v, c.Name+"_tx_data") || !strings.Contains(v, c.Name+"_rx_valid") {
			t.Fatalf("ports of core %s missing", c.Name)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}

// Every instantiated module must be defined in the same file, and every
// referenced wire declared.
func TestGenerateSelfContained(t *testing.T) {
	dp := synth(t)
	v, err := Generate(dp.Top, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^module (\w+)`).FindAllStringSubmatch(v, -1) {
		defined[m[1]] = true
	}
	for _, inst := range regexp.MustCompile(`(?m)^\s+(noc_\w+) #\(`).FindAllStringSubmatch(v, -1) {
		if !defined[inst[1]] {
			t.Fatalf("instance of undefined module %q", inst[1])
		}
	}
	declared := map[string]bool{}
	for _, m := range regexp.MustCompile(`wire(?:\s+\[[^\]]+\])?\s+([^;]+);`).FindAllStringSubmatch(v, -1) {
		for _, w := range strings.Split(m[1], ",") {
			declared[strings.TrimSpace(w)] = true
		}
	}
	for _, m := range regexp.MustCompile(`\b(w_\w+)\b`).FindAllStringSubmatch(v, -1) {
		if !declared[m[1]] {
			t.Fatalf("wire %q used but not declared", m[1])
		}
	}
}

func TestGenerateSourceRouteComments(t *testing.T) {
	dp := synth(t)
	v, err := Generate(dp.Top, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One route comment per flow.
	n := strings.Count(v, "// Source routes")
	if n != 1 {
		t.Fatal("source route block missing")
	}
	routes := regexp.MustCompile(`//   \w+ -> \w+ : \[`).FindAllString(v, -1)
	if len(routes) != len(dp.Top.Routes) {
		t.Fatalf("route comments = %d, want %d", len(routes), len(dp.Top.Routes))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	dp := synth(t)
	a, err := Generate(dp.Top, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(dp.Top, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("netlist generation not deterministic")
	}
}

func TestGenerateHopBitsBound(t *testing.T) {
	dp := synth(t)
	// With 1-bit hop fields (max 2 ports) big switches must be rejected.
	if _, err := Generate(dp.Top, Config{HopBits: 1}); err == nil {
		t.Fatal("oversized switch accepted with 1-bit hop fields")
	}
}

func TestGenerateAllBenchmarks(t *testing.T) {
	lib := model.Default65nm()
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(spec, lib, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Generate(res.Best().Top, Config{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
