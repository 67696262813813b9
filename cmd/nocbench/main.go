// Command nocbench regenerates the paper's figures and tables from the
// reproduction. Each experiment is selected with -exp:
//
//	nocbench -exp fig2        island count vs NoC dynamic power (Fig. 2)
//	nocbench -exp fig3        island count vs zero-load latency (Fig. 3)
//	nocbench -exp fig4        the 6-VI logical topology, DOT + text (Fig. 4)
//	nocbench -exp fig5        its floorplan, SVG + ASCII (Fig. 5)
//	nocbench -exp tab1        shutdown-support overhead across the suite
//	nocbench -exp tab2        island-shutdown power savings scenarios
//	nocbench -exp tab3        one NoC for every operating mode, idle islands gated
//	nocbench -exp load        injection-scale sweep to saturation
//	nocbench -exp cmp-mesh    comparison against a regular-mesh mapping
//	nocbench -exp cmp-fault   single-link-failure recoverability, custom vs mesh
//	nocbench -exp campaign    power-state fault campaign across the suite
//	nocbench -exp survive     power/latency vs survivability degree k
//	nocbench -exp abl-alpha   ablation: VCG weight alpha
//	nocbench -exp abl-mid     ablation: intermediate NoC island on/off
//	nocbench -exp abl-part    ablation: greedy vs spectral partitioning
//	nocbench -exp abl-buffer  ablation: wormhole buffer depth
//	nocbench -exp abl-dvs     ablation: per-island NoC supply scaling
//	nocbench -exp abl-width   ablation: link data width
//	nocbench -exp all         everything above, in this order
//
// fig2 and fig3 come from one sweep, so either prints both curves.
// With -out DIR the figure artifacts (DOT/SVG) are also written to
// files; tables always go to stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"nocvi/internal/cliflags"
	"nocvi/internal/experiments"
	"nocvi/internal/model"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+usage()+")")
	out := flag.String("out", "", "directory to write DOT/SVG artifacts to (optional)")
	width := flag.Int("width", 32, "NoC link data width in bits")
	synth := cliflags.Synth(flag.CommandLine)
	profile := cliflags.Profile(flag.CommandLine)
	flag.Parse()

	store, err := synth.OpenCache()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
	experiments.Cache = store
	experiments.Workers = synth.Workers
	experiments.Survive = synth.Survive
	lib := model.Default65nm()
	lib.LinkWidthBits = *width
	stopProf, err := profile.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
	start := time.Now()
	err = run(os.Stdout, *exp, *out, lib)
	if store != nil {
		st := store.StoreStats()
		fmt.Printf("[cache: %d hits, %d misses, %d entries, %.1f MB]\n",
			st.Hits, st.Misses, st.Entries, float64(st.Bytes)/1e6)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
	fmt.Printf("\n[%s completed in %v]\n", *exp, time.Since(start).Round(time.Millisecond))
}

// experiment is one entry of the experiment table: the -exp ids that
// select it and the runner that prints it.
type experiment struct {
	ids []string
	run runner
}

// runner prints one experiment to w, writing any figure artifact to the
// -out directory out.
type runner func(w io.Writer, lib *model.Library, out string) error

// table lists every experiment in the order -exp all runs them. It is
// the only list of ids: dispatch, the -exp usage string and the
// unknown-id error all read it.
var table = []experiment{
	{[]string{"fig2", "fig3"}, rows(func(lib *model.Library) ([]experiments.CurvePoint, error) {
		return experiments.Curves(lib, nil)
	}, experiments.FormatCurves)},
	{[]string{"fig4"}, figure("Fig.4 — synthesized topology, D26 with 6 logical VIs", "fig4_topology.dot", experiments.Fig4)},
	{[]string{"fig5"}, figure("Fig.5 — floorplan, D26 with 6 logical VIs", "fig5_floorplan.svg", experiments.Fig5)},
	{[]string{"tab1"}, rows(experiments.Tab1, experiments.FormatTab1)},
	{[]string{"tab2"}, rows(experiments.Tab2, experiments.FormatTab2)},
	{[]string{"tab3"}, rows(experiments.Tab3, experiments.FormatTab3)},
	{[]string{"load"}, rows(func(lib *model.Library) ([]experiments.LoadRow, error) {
		return experiments.LoadSweep(lib, nil)
	}, experiments.FormatLoadSweep)},
	{[]string{"cmp-mesh"}, rows(experiments.CmpMesh, experiments.FormatCmpMesh)},
	{[]string{"cmp-fault"}, rows(experiments.CmpFault, experiments.FormatCmpFault)},
	{[]string{"campaign"}, rows(experiments.CampaignSweep, experiments.FormatCampaign)},
	{[]string{"survive"}, rows(func(lib *model.Library) ([]experiments.SurviveRow, error) {
		return experiments.SurviveSweep(lib, nil)
	}, experiments.FormatSurvive)},
	{[]string{"abl-alpha"}, ablation("Ablation — VCG weight alpha (D26, single island: partitioning-dominated)", experiments.AblAlpha)},
	{[]string{"abl-mid"}, ablation("Ablation — intermediate NoC island (D26, 26 VIs)", experiments.AblMid)},
	{[]string{"abl-part"}, ablation("Ablation — greedy vs spectral communication partitioning (D26)", experiments.AblPartitioner)},
	{[]string{"abl-buffer"}, ablation("Ablation — wormhole buffer depth (D26, flit-level engine; latency in cycles, links column = packets delivered)", experiments.AblBuffer)},
	{[]string{"abl-dvs"}, ablation("Ablation — per-island NoC supply scaling (D26, 6 logical VIs)", experiments.AblDVS)},
	{[]string{"abl-width"}, ablation("Ablation — link data width (D26, 6 logical VIs)", experiments.AblWidth)},
}

// rows is the runner of a table experiment: compute the rows, print
// them through format.
func rows[R any](compute func(*model.Library) (R, error), format func(R) string) runner {
	return func(w io.Writer, lib *model.Library, _ string) error {
		r, err := compute(lib)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, format(r))
		return err
	}
}

// ablation is the runner of an ablation study printed under title.
func ablation(title string, compute func(*model.Library) ([]experiments.AblationRow, error)) runner {
	return rows(compute, func(r []experiments.AblationRow) string { return experiments.FormatAblation(title, r) })
}

// figure is the runner of a figure: print its title and text
// rendering, and save its artifact as file under the -out directory.
func figure(title, file string, compute func(*model.Library) (artifact, txt string, err error)) runner {
	return func(w io.Writer, lib *model.Library, out string) error {
		artifact, txt, err := compute(lib)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n%s\n", title, txt); err != nil {
			return err
		}
		return save(w, out, file, artifact)
	}
}

// usage names every id -exp accepts, in table order.
func usage() string {
	var ids []string
	for _, e := range table {
		ids = append(ids, e.ids...)
	}
	return strings.Join(append(ids, "all"), "|")
}

// selectExp returns the experiments id selects: the whole table for
// "all", else the one entry that lists id.
func selectExp(id string) ([]experiment, error) {
	if id == "all" {
		return table, nil
	}
	for i := range table {
		if slices.Contains(table[i].ids, id) {
			return table[i : i+1], nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s)", id, usage())
}

// run prints the experiments exp selects to w, writing their figure
// artifacts to the directory out (none when out is empty).
func run(w io.Writer, exp, out string, lib *model.Library) error {
	sel, err := selectExp(exp)
	if err != nil {
		return err
	}
	for _, e := range sel {
		if err := e.run(w, lib, out); err != nil {
			return err
		}
	}
	return nil
}

// save writes content to the file name under dir, when dir is set, and
// reports the path on w.
func save(w io.Writer, dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "[wrote %s]\n", path)
	return err
}
