// Island shutdown in action: synthesize the D26 NoC, then walk through
// run-time power states — video playback (DSP island off), standby
// (everything gateable off) — proving for each that no surviving flow
// is routed through a gated island (nocvi.VerifyShutdown), and
// accounting the power recovered. This is the paper's motivating use
// case: the ~3% NoC overhead buys >=25% whole-system savings.
package main

import (
	"fmt"
	"log"
	"strings"

	"nocvi"
)

func main() {
	spec, err := nocvi.BenchmarkD26(nocvi.Logical, 6)
	if err != nil {
		log.Fatal(err)
	}
	res, err := nocvi.Synthesize(spec, nocvi.DefaultLibrary(), nocvi.Options{AllowIntermediate: true})
	if err != nil {
		log.Fatal(err)
	}
	top := res.Best().Top

	fmt.Printf("%s with %d islands:\n", spec.Name, len(spec.Islands))
	for _, isl := range spec.Islands {
		var members []string
		for _, c := range spec.CoresIn(isl.ID) {
			members = append(members, spec.Cores[c].Name)
		}
		state := "always on"
		if isl.Shutdownable {
			state = "gateable"
		}
		fmt.Printf("  %-8s %-9s  %s\n", isl.Name, state, strings.Join(members, " "))
	}

	// Run-time power states: gate progressively more islands.
	states := []struct {
		name   string
		gateIf func(isl nocvi.Island, members []string) bool
	}{
		{"audio call (media engines off)", func(isl nocvi.Island, m []string) bool {
			return isl.Shutdownable && contains(m, "vdec")
		}},
		{"video playback (DSP subsystem off)", func(isl nocvi.Island, m []string) bool {
			return isl.Shutdownable && contains(m, "dsp0")
		}},
		{"standby (all gateable islands off)", func(isl nocvi.Island, m []string) bool {
			return isl.Shutdownable
		}},
	}

	fmt.Println("\nstate                                    gated islands    power      saved   delivery")
	for _, st := range states {
		off := make([]bool, len(spec.Islands))
		var gated []string
		for _, isl := range spec.Islands {
			var members []string
			for _, c := range spec.CoresIn(isl.ID) {
				members = append(members, spec.Cores[c].Name)
			}
			if st.gateIf(isl, members) {
				off[isl.ID] = true
				gated = append(gated, isl.Name)
			}
		}
		onW, offW, frac, err := nocvi.ShutdownSavings(top, st.name, off)
		if err != nil {
			log.Fatal(err)
		}
		delivery := "ok"
		if err := nocvi.VerifyShutdown(top, off); err != nil {
			delivery = "FAILED: " + err.Error()
		}
		_ = onW
		fmt.Printf("%-40s %-15s %7.0f mW %7.1f%%   %s\n",
			st.name, strings.Join(gated, ","), offW*1e3, frac*100, delivery)
	}

	full := nocvi.ShutdownPower(top, nil)
	fmt.Printf("\nall-on reference: %.0f mW (cores %.0f dyn + %.0f leak, NoC %.1f)\n",
		full.TotalW()*1e3, full.CoreDynW*1e3, full.CoreLeakW*1e3, full.NoC.TotalW()*1e3)

	// Integrate over a phone-like duty cycle: mostly standby, some
	// playback, a little full activity.
	allOn := make([]bool, len(spec.Islands))
	standby := make([]bool, len(spec.Islands))
	playback := make([]bool, len(spec.Islands))
	for _, isl := range spec.Islands {
		if isl.Shutdownable {
			standby[isl.ID] = true
			var members []string
			for _, c := range spec.CoresIn(isl.ID) {
				members = append(members, spec.Cores[c].Name)
			}
			if contains(members, "dsp0") || contains(members, "uart") {
				playback[isl.ID] = true
			}
		}
	}
	day := nocvi.Schedule{Entries: []nocvi.ScheduleEntry{
		{Scenario: nocvi.PowerScenario{Name: "active", Off: allOn}, Frac: 0.05},
		{Scenario: nocvi.PowerScenario{Name: "playback", Off: playback}, Frac: 0.35},
		{Scenario: nocvi.PowerScenario{Name: "standby", Off: standby}, Frac: 0.60},
	}}
	onW, schedW, frac, err := nocvi.ScheduleSavings(top, day)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nphone duty cycle (5%% active / 35%% playback / 60%% standby):\n")
	fmt.Printf("  average power %.0f mW vs %.0f mW always-on — %.0f%% of the energy recovered\n",
		schedW*1e3, onW*1e3, frac*100)
	fmt.Println("\nthe NoC itself participates: switches, NIs and converters of a gated island")
	fmt.Println("power down with it, and no surviving route ever crossed that island — the")
	fmt.Println("guarantee the topology was synthesized under.")
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
