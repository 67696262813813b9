package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nocvi/internal/model"
)

// withEvalHook installs a test evaluation hook and removes it when the
// test ends. Tests using it must not run in parallel with each other.
func withEvalHook(t *testing.T, hook func(counts []int, mid int)) {
	t.Helper()
	testHookEvalStart = hook
	t.Cleanup(func() { testHookEvalStart = nil })
}

// TestPanicRecoveryIdenticalAcrossWorkers injects a panic into every
// mid=1 candidate and checks the robustness contract: the sweep
// neither dies nor deadlocks, the panicked candidates land on
// Result.Errors with normalized stacks, and the full Result — points
// and errors — is identical at workers=1 and workers=8. Run under
// -race this also proves the recovery path is goroutine-clean.
func TestPanicRecoveryIdenticalAcrossWorkers(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}

	clean, err := Synthesize(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}

	withEvalHook(t, func(counts []int, mid int) {
		if mid == 1 {
			panic("injected: candidate evaluation blew up")
		}
	})

	before := runtime.NumGoroutine()
	results := make([]*Result, 2)
	for i, workers := range []int{1, 8} {
		opt.Workers = workers
		res, err := Synthesize(spec, lib, opt)
		if err != nil {
			t.Fatalf("workers=%d: sweep died on an injected panic: %v", workers, err)
		}
		results[i] = res
	}
	serial, parallel := results[0], results[1]

	if len(serial.Errors) == 0 {
		t.Fatal("no CandidateError recorded for the injected panics")
	}
	if !reflect.DeepEqual(serial.Errors, parallel.Errors) {
		t.Fatalf("Errors differ across worker counts:\n%v\nvs\n%v", serial.Errors, parallel.Errors)
	}
	samePoints(t, "panic-injected", serial, parallel)

	for i := range serial.Errors {
		e := &serial.Errors[i]
		if e.MidSwitches != 1 {
			t.Fatalf("error recorded for mid=%d, panics were injected at mid=1", e.MidSwitches)
		}
		if e.Panic != "injected: candidate evaluation blew up" {
			t.Fatalf("panic value mangled: %q", e.Panic)
		}
		if !strings.Contains(e.Stack, "TestPanicRecoveryIdenticalAcrossWorkers") {
			t.Fatalf("normalized stack lost the panic site:\n%s", e.Stack)
		}
		if strings.Contains(e.Stack, "goroutine ") || strings.Contains(e.Stack, "+0x") {
			t.Fatalf("stack not normalized:\n%s", e.Stack)
		}
		if err := e.Error(); !strings.Contains(err, "mid=1") {
			t.Fatalf("Error() lost the candidate: %s", err)
		}
	}

	// The surviving points are exactly the clean sweep minus the
	// panicked (mid=1) candidates, and Explored still covers everything.
	if serial.Explored != clean.Explored {
		t.Fatalf("panics dropped candidates from Explored: %d vs %d", serial.Explored, clean.Explored)
	}
	var want []DesignPoint
	for _, p := range clean.Points {
		if p.MidSwitches != 1 {
			want = append(want, p)
		}
	}
	if len(serial.Points) != len(want) {
		t.Fatalf("%d surviving points, want %d", len(serial.Points), len(want))
	}

	// No goroutine may outlive the sweeps.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestArenaDroppedAfterPanic checks that safeEval poisons the worker's
// arena: a candidate evaluated right after a panic must see fresh
// state, not the half-mutated topology the panic abandoned.
func TestArenaDroppedAfterPanic(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}

	clean, err := Synthesize(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Panic mid-build (after the arena's topology has been dirtied) on
	// the first candidate only; every later candidate reuses the arena.
	var fired atomic.Bool
	withEvalHook(t, func(counts []int, mid int) {
		if fired.CompareAndSwap(false, true) {
			panic("injected: first candidate")
		}
	})
	opt.Workers = 1
	res, err := Synthesize(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("want 1 candidate error, got %d", len(res.Errors))
	}
	// Expected points: the clean sweep's, minus the panicked candidate's
	// point if it had one.
	panicked := &res.Errors[0]
	var want []DesignPoint
	for _, p := range clean.Points {
		if reflect.DeepEqual(p.SwitchCounts, panicked.SwitchCounts) && p.MidSwitches == panicked.MidSwitches {
			continue
		}
		want = append(want, p)
	}
	if len(res.Points) != len(want) {
		t.Fatalf("later candidates corrupted: %d points, want %d", len(res.Points), len(want))
	}
	for i := range want {
		p, q := &res.Points[i], &want[i]
		if p.NoCPower != q.NoCPower || p.MeanLatencyCycles != q.MeanLatencyCycles {
			t.Fatalf("point %d differs from clean sweep: arena state leaked across the panic", i)
		}
	}
}

// TestTimeoutPartialPrefix cancels a parallel sweep after a fixed
// number of candidate evaluations and checks the degradation contract:
// the result is non-empty, marked Partial/StopCanceled, and equal to a
// prefix of the uninterrupted serial sweep.
func TestTimeoutPartialPrefix(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}

	opt.Workers = 1
	full, err := Synthesize(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Points) < 2 {
		t.Fatalf("need a sweep with >=2 points to truncate, got %d", len(full.Points))
	}

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var evals atomic.Int64
		withEvalHook(t, func(counts []int, mid int) {
			// Cancel once enough candidates are in flight; those already
			// claimed still finish, keeping the evaluated set a prefix.
			if evals.Add(1) == 4 {
				cancel()
			}
		})
		partial, err := SynthesizeContext(ctx, spec, lib, Options{
			AllowIntermediate: true, MaxIntermediateSwitches: 2, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: canceled sweep errored: %v", workers, err)
		}
		if !partial.Partial || partial.StopReason != StopCanceled {
			t.Fatalf("workers=%d: want Partial/%s, got Partial=%v StopReason=%q",
				workers, StopCanceled, partial.Partial, partial.StopReason)
		}
		if partial.Explored == 0 || partial.Explored >= full.Explored {
			t.Fatalf("workers=%d: Explored=%d not a strict non-empty prefix of %d",
				workers, partial.Explored, full.Explored)
		}
		if len(partial.Points) == 0 {
			t.Fatalf("workers=%d: partial result lost the points already found", workers)
		}
		// Points must be exactly the first len(partial.Points) of the
		// serial sweep — same candidates, same metrics, same order.
		for i := range partial.Points {
			p, q := &partial.Points[i], &full.Points[i]
			if !reflect.DeepEqual(p.SwitchCounts, q.SwitchCounts) || p.MidSwitches != q.MidSwitches ||
				p.NoCPower != q.NoCPower || p.MeanLatencyCycles != q.MeanLatencyCycles {
				t.Fatalf("workers=%d: partial point %d is not the serial sweep's point %d", workers, i, i)
			}
		}
	}
}

// TestDeadlineStopReason distinguishes the two context stop reasons.
func TestDeadlineStopReason(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := SynthesizeContext(ctx, spec, lib, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.StopReason != StopDeadline {
		t.Fatalf("want Partial/%s, got Partial=%v StopReason=%q", StopDeadline, res.Partial, res.StopReason)
	}
}

// TestRelaxLadderRecoversInfeasibleSpec drives the degradation ladder
// end to end. Flow 0->1 is intra-island; its single-switch route is the
// lowest latency any candidate can achieve, so a constraint 5% below
// that latency is infeasible for every candidate — until the ladder's
// latency-slack rung (x1.1) lifts it back over the floor.
func TestRelaxLadderRecoversInfeasibleSpec(t *testing.T) {
	lib := model.Default65nm()
	base := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}

	full, err := Synthesize(miniSoC(), lib, base)
	if err != nil {
		t.Fatal(err)
	}
	// The latency floor for flow 0->1: its best committed route over the
	// whole sweep (the single-switch candidates reach the true minimum).
	floor := 0.0
	for i := range full.Points {
		top := full.Points[i].Top
		for ri := range top.Routes {
			r := &top.Routes[ri]
			if f := top.Spec.Flows[r.Flow]; f.Src == 0 && f.Dst == 1 {
				if lat := top.ZeroLoadLatencyCycles(r); floor == 0 || lat < floor {
					floor = lat
				}
			}
		}
	}
	if floor <= 0 {
		t.Fatal("no route found for flow 0->1")
	}

	tight := miniSoC()
	for i := range tight.Flows {
		if tight.Flows[i].Src == 0 && tight.Flows[i].Dst == 1 {
			tight.Flows[i].MaxLatencyCycles = floor * 0.95
		}
	}

	// Unrelaxed: infeasible, and the error is errors.Is-matchable.
	if _, err := Synthesize(tight, lib, base); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("tightened spec should be infeasible, got %v", err)
	}

	relaxOpt := base
	relaxOpt.Relax = true
	res, err := Synthesize(tight, lib, relaxOpt)
	if err != nil {
		t.Fatalf("degradation ladder failed to recover the spec: %v", err)
	}
	if len(res.Points) == 0 {
		t.Fatal("relaxed result has no points")
	}
	want := []string{RelaxIntermediate, RelaxLatency}
	if !reflect.DeepEqual(res.Relaxations, want) {
		t.Fatalf("Relaxations = %v, want %v", res.Relaxations, want)
	}
	for i := range res.Points {
		if !reflect.DeepEqual(res.Points[i].Relaxations, want) {
			t.Fatalf("point %d not stamped with its relaxations: %v", i, res.Points[i].Relaxations)
		}
	}

	// A feasible spec with Relax on must synthesize unrelaxed and
	// unstamped — the ladder only runs on failure.
	plain, err := Synthesize(miniSoC(), lib, relaxOpt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Relaxations != nil {
		t.Fatalf("feasible spec was relaxed: %v", plain.Relaxations)
	}
	samePoints(t, "relax-on-feasible", full, plain)
}

// TestRelaxLadderExhausts pins the failure mode: a spec no rung can
// repair returns the original infeasibility, errors.Is-matchable.
func TestRelaxLadderExhausts(t *testing.T) {
	spec := miniSoC()
	for i := range spec.Flows {
		spec.Flows[i].MaxLatencyCycles = 0.001 // below any possible route
	}
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2, Relax: true}
	_, err := Synthesize(spec, model.Default65nm(), opt)
	if err == nil {
		t.Fatal("impossible spec synthesized")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("exhausted ladder lost the ErrInfeasible mark: %v", err)
	}
	if !strings.Contains(err.Error(), "ladder exhausted") {
		t.Fatalf("error does not say the ladder ran: %v", err)
	}
}

// TestRelaxRungMechanics unit-tests each rung's transformation.
func TestRelaxRungMechanics(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	opt := Options{}

	s1, l1, o1 := relaxIntermediate(spec, lib, opt)
	if !o1.AllowIntermediate || o1.MaxIntermediateSwitches != 4 {
		t.Fatalf("intermediate rung: allow=%v max=%d (island max is 4 cores)",
			o1.AllowIntermediate, o1.MaxIntermediateSwitches)
	}
	if s1 != spec || l1 != lib {
		t.Fatal("intermediate rung must not touch spec or library")
	}
	// Applying it again (already on) doubles the sweep range.
	_, _, o1b := relaxIntermediate(spec, lib, o1)
	if o1b.MaxIntermediateSwitches != 8 {
		t.Fatalf("second intermediate rung: max=%d, want 8", o1b.MaxIntermediateSwitches)
	}

	s2, l2, _ := relaxLatency(spec, lib, opt)
	if s2 == spec {
		t.Fatal("latency rung must clone the spec")
	}
	if got, want := s2.Flows[0].MaxLatencyCycles, spec.Flows[0].MaxLatencyCycles*relaxLatencyFactor; got != want {
		t.Fatalf("latency rung: %g, want %g", got, want)
	}
	if spec.Flows[0].MaxLatencyCycles != 10 {
		t.Fatal("latency rung mutated the caller's spec")
	}
	if l2 != lib {
		t.Fatal("latency rung must not touch the library")
	}

	_, l3, _ := relaxSwitchSize(spec, lib, opt)
	if l3 == lib {
		t.Fatal("switch-size rung must clone the library")
	}
	if got, want := l3.MaxFreqA, lib.MaxFreqA*relaxFreqAFactor; got != want {
		t.Fatalf("switch-size rung: MaxFreqA %g, want %g", got, want)
	}
	if l3.MaxSwitchSize(1e9) < lib.MaxSwitchSize(1e9) {
		t.Fatal("switch-size rung shrank the max switch size")
	}
}

// TestNormalizeStack pins the normalization rules on a synthetic dump.
func TestNormalizeStack(t *testing.T) {
	raw := []byte(`goroutine 42 [running]:
runtime/debug.Stack()
	/usr/local/go/src/runtime/debug/stack.go:26 +0x5e
nocvi/internal/core.safeEval.func1()
	/src/nocvi/internal/core/driver.go:300 +0x88
panic({0x5a3c80?, 0x6f1d30?})
	/usr/local/go/src/runtime/panic.go:792 +0x132
nocvi/internal/core.buildPoint(0xc0001b2000, {0xc00001c0a8, 0x3, 0x3}, ...)
	/src/nocvi/internal/core/core.go:700 +0x1a4
nocvi/internal/core.safeEval(0xc0001b2000, {0xc00001c0a8, 0x3, 0x3}, {0xc000112e10, 0x3, 0x3}, 0x1)
	/src/nocvi/internal/core/driver.go:316 +0xde
nocvi/internal/core.(*sweepEnv).evaluate(0xc000180000, 0xc0001b2000, 0x7, {0xc00001c0a8, 0x3, 0x3}, ...)
	/src/nocvi/internal/core/driver.go:288 +0x2a4
nocvi/internal/core.(*sweepEnv).drive.func1(0x0, 0xc0001b2000)
	/src/nocvi/internal/core/driver.go:410 +0x10c
created by nocvi/internal/core.(*sweepEnv).drive in goroutine 1
	/src/nocvi/internal/core/driver.go:400 +0x4f3
`)
	got := normalizeStack(raw)
	want := "nocvi/internal/core.buildPoint\n\t/src/nocvi/internal/core/core.go:700\n"
	if got != want {
		t.Fatalf("normalizeStack:\n%q\nwant\n%q", got, want)
	}
}
