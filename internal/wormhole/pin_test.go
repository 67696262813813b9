package wormhole

import (
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/topology"
)

// pinConfigs are the configurations TestExactOutputsPinned runs on
// every suite winner: the defaults, a longer run, 1-flit buffers and
// the four buffer depths of the abl-buffer experiment.
var pinConfigs = []struct {
	name string
	cfg  Config
}{
	{"defaults", Config{}},
	{"pkts8", Config{PacketsPerFlow: 8}},
	{"buf1", Config{BufferFlits: 1}},
	{"abl1", Config{BufferFlits: 1, PacketsPerFlow: 8, InjectionGapCycles: 4}},
	{"abl2", Config{BufferFlits: 2, PacketsPerFlow: 8, InjectionGapCycles: 4}},
	{"abl4", Config{BufferFlits: 4, PacketsPerFlow: 8, InjectionGapCycles: 4}},
	{"abl8", Config{BufferFlits: 8, PacketsPerFlow: 8, InjectionGapCycles: 4}},
}

// suiteWinners synthesizes the power winner of every bundled benchmark.
func suiteWinners(t *testing.T) map[string]*topology.Topology {
	t.Helper()
	tops := map[string]*topology.Topology{}
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(spec, model.Default65nm(), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tops[name] = res.Best().Top
	}
	return tops
}

// TestExactOutputsPinned pins the engine's complete Result on every
// suite winner under pinConfigs and on both ring deadlocks. The values
// were recorded before the engine's wire and queues were rewritten;
// any change in flit timing, arbitration order or credit reuse moves
// at least one of them.
func TestExactOutputsPinned(t *testing.T) {
	got := map[string]Result{}
	for name, top := range suiteWinners(t) {
		for _, pc := range pinConfigs {
			res, err := Run(top, pc.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, pc.name, err)
			}
			got[name+"/"+pc.name] = *res
		}
	}
	for _, rc := range []struct {
		name string
		cfg  Config
	}{
		{"ring/buf2", Config{BufferFlits: 2, PacketsPerFlow: 4, InjectionGapCycles: 1}},
		{"ring/buf8", Config{BufferFlits: 8, PacketsPerFlow: 1, InjectionGapCycles: 1}},
	} {
		res, err := Run(ring(t), rc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		got[rc.name] = *res
	}
	if len(got) != len(pinnedResults) {
		t.Fatalf("ran %d cases, %d pinned", len(got), len(pinnedResults))
	}
	for k, want := range pinnedResults {
		if g, ok := got[k]; !ok || g != want {
			t.Errorf("%s:\n got %+v\nwant %+v", k, g, want)
		}
	}
}

// pinnedResults holds the recorded Results, keyed design/config.
var pinnedResults = map[string]Result{
	"d26_media/defaults":       {Cycles: 197, Injected: 168, Delivered: 168, Deadlocked: false, MeanLatencyCycles: 19.571428571428573, MaxLatencyCycles: 46, PeakBufferFlits: 4},
	"d26_media/pkts8":          {Cycles: 402, Injected: 336, Delivered: 336, Deadlocked: false, MeanLatencyCycles: 20.830357142857142, MaxLatencyCycles: 53, PeakBufferFlits: 4},
	"d26_media/buf1":           {Cycles: 791, Injected: 168, Delivered: 168, Deadlocked: false, MeanLatencyCycles: 50.666666666666664, MaxLatencyCycles: 117, PeakBufferFlits: 1},
	"d26_media/abl1":           {Cycles: 1568, Injected: 336, Delivered: 336, Deadlocked: false, MeanLatencyCycles: 52.61904761904762, MaxLatencyCycles: 117, PeakBufferFlits: 1},
	"d26_media/abl2":           {Cycles: 764, Injected: 336, Delivered: 336, Deadlocked: false, MeanLatencyCycles: 29.616071428571427, MaxLatencyCycles: 76, PeakBufferFlits: 2},
	"d26_media/abl4":           {Cycles: 402, Injected: 336, Delivered: 336, Deadlocked: false, MeanLatencyCycles: 21.81547619047619, MaxLatencyCycles: 53, PeakBufferFlits: 4},
	"d26_media/abl8":           {Cycles: 326, Injected: 336, Delivered: 336, Deadlocked: false, MeanLatencyCycles: 22.863095238095237, MaxLatencyCycles: 87, PeakBufferFlits: 8},
	"d38_settop/defaults":      {Cycles: 288, Injected: 256, Delivered: 256, Deadlocked: false, MeanLatencyCycles: 27.8125, MaxLatencyCycles: 91, PeakBufferFlits: 4},
	"d38_settop/pkts8":         {Cycles: 575, Injected: 512, Delivered: 512, Deadlocked: false, MeanLatencyCycles: 29.79296875, MaxLatencyCycles: 91, PeakBufferFlits: 4},
	"d38_settop/buf1":          {Cycles: 1187, Injected: 256, Delivered: 256, Deadlocked: false, MeanLatencyCycles: 69.890625, MaxLatencyCycles: 617, PeakBufferFlits: 1},
	"d38_settop/abl1":          {Cycles: 2367, Injected: 512, Delivered: 512, Deadlocked: false, MeanLatencyCycles: 73.078125, MaxLatencyCycles: 1221, PeakBufferFlits: 1},
	"d38_settop/abl2":          {Cycles: 1096, Injected: 512, Delivered: 512, Deadlocked: false, MeanLatencyCycles: 39.150390625, MaxLatencyCycles: 140, PeakBufferFlits: 2},
	"d38_settop/abl4":          {Cycles: 575, Injected: 512, Delivered: 512, Deadlocked: false, MeanLatencyCycles: 30.27734375, MaxLatencyCycles: 91, PeakBufferFlits: 4},
	"d38_settop/abl8":          {Cycles: 519, Injected: 512, Delivered: 512, Deadlocked: false, MeanLatencyCycles: 33.2578125, MaxLatencyCycles: 127, PeakBufferFlits: 8},
	"d35_tablet/defaults":      {Cycles: 378, Injected: 232, Delivered: 232, Deadlocked: false, MeanLatencyCycles: 29.745689655172413, MaxLatencyCycles: 155, PeakBufferFlits: 4},
	"d35_tablet/pkts8":         {Cycles: 755, Injected: 464, Delivered: 464, Deadlocked: false, MeanLatencyCycles: 32.86853448275862, MaxLatencyCycles: 303, PeakBufferFlits: 4},
	"d35_tablet/buf1":          {Cycles: 1678, Injected: 232, Delivered: 232, Deadlocked: false, MeanLatencyCycles: 77.73706896551724, MaxLatencyCycles: 247, PeakBufferFlits: 1},
	"d35_tablet/abl1":          {Cycles: 3363, Injected: 464, Delivered: 464, Deadlocked: false, MeanLatencyCycles: 81.15086206896552, MaxLatencyCycles: 247, PeakBufferFlits: 1},
	"d35_tablet/abl2":          {Cycles: 1508, Injected: 464, Delivered: 464, Deadlocked: false, MeanLatencyCycles: 42.26293103448276, MaxLatencyCycles: 585, PeakBufferFlits: 2},
	"d35_tablet/abl4":          {Cycles: 756, Injected: 464, Delivered: 464, Deadlocked: false, MeanLatencyCycles: 33.400862068965516, MaxLatencyCycles: 303, PeakBufferFlits: 4},
	"d35_tablet/abl8":          {Cycles: 646, Injected: 464, Delivered: 464, Deadlocked: false, MeanLatencyCycles: 35.68318965517241, MaxLatencyCycles: 143, PeakBufferFlits: 8},
	"d30_basestation/defaults": {Cycles: 129, Injected: 172, Delivered: 172, Deadlocked: false, MeanLatencyCycles: 12.837209302325581, MaxLatencyCycles: 50, PeakBufferFlits: 4},
	"d30_basestation/pkts8":    {Cycles: 257, Injected: 344, Delivered: 344, Deadlocked: false, MeanLatencyCycles: 13.686046511627907, MaxLatencyCycles: 50, PeakBufferFlits: 4},
	"d30_basestation/buf1":     {Cycles: 241, Injected: 172, Delivered: 172, Deadlocked: false, MeanLatencyCycles: 16.63372093023256, MaxLatencyCycles: 69, PeakBufferFlits: 1},
	"d30_basestation/abl1":     {Cycles: 481, Injected: 344, Delivered: 344, Deadlocked: false, MeanLatencyCycles: 17.938953488372093, MaxLatencyCycles: 69, PeakBufferFlits: 1},
	"d30_basestation/abl2":     {Cycles: 321, Injected: 344, Delivered: 344, Deadlocked: false, MeanLatencyCycles: 14.915697674418604, MaxLatencyCycles: 46, PeakBufferFlits: 2},
	"d30_basestation/abl4":     {Cycles: 257, Injected: 344, Delivered: 344, Deadlocked: false, MeanLatencyCycles: 14.869186046511627, MaxLatencyCycles: 50, PeakBufferFlits: 4},
	"d30_basestation/abl8":     {Cycles: 257, Injected: 344, Delivered: 344, Deadlocked: false, MeanLatencyCycles: 19.781976744186046, MaxLatencyCycles: 71, PeakBufferFlits: 8},
	"d24_auto/defaults":        {Cycles: 181, Injected: 156, Delivered: 156, Deadlocked: false, MeanLatencyCycles: 27.307692307692307, MaxLatencyCycles: 110, PeakBufferFlits: 4},
	"d24_auto/pkts8":           {Cycles: 361, Injected: 312, Delivered: 312, Deadlocked: false, MeanLatencyCycles: 29.858974358974358, MaxLatencyCycles: 222, PeakBufferFlits: 4},
	"d24_auto/buf1":            {Cycles: 668, Injected: 156, Delivered: 156, Deadlocked: false, MeanLatencyCycles: 72.1923076923077, MaxLatencyCycles: 203, PeakBufferFlits: 1},
	"d24_auto/abl1":            {Cycles: 1328, Injected: 312, Delivered: 312, Deadlocked: false, MeanLatencyCycles: 74.99038461538461, MaxLatencyCycles: 203, PeakBufferFlits: 1},
	"d24_auto/abl2":            {Cycles: 639, Injected: 312, Delivered: 312, Deadlocked: false, MeanLatencyCycles: 39.56730769230769, MaxLatencyCycles: 420, PeakBufferFlits: 2},
	"d24_auto/abl4":            {Cycles: 361, Injected: 312, Delivered: 312, Deadlocked: false, MeanLatencyCycles: 30.201923076923077, MaxLatencyCycles: 220, PeakBufferFlits: 4},
	"d24_auto/abl8":            {Cycles: 321, Injected: 312, Delivered: 312, Deadlocked: false, MeanLatencyCycles: 32.791666666666664, MaxLatencyCycles: 119, PeakBufferFlits: 8},
	"d16_industrial/defaults":  {Cycles: 227, Injected: 104, Delivered: 104, Deadlocked: false, MeanLatencyCycles: 20.182692307692307, MaxLatencyCycles: 87, PeakBufferFlits: 4},
	"d16_industrial/pkts8":     {Cycles: 452, Injected: 208, Delivered: 208, Deadlocked: false, MeanLatencyCycles: 20.78846153846154, MaxLatencyCycles: 92, PeakBufferFlits: 4},
	"d16_industrial/buf1":      {Cycles: 662, Injected: 104, Delivered: 104, Deadlocked: false, MeanLatencyCycles: 35.70192307692308, MaxLatencyCycles: 169, PeakBufferFlits: 1},
	"d16_industrial/abl1":      {Cycles: 1341, Injected: 208, Delivered: 208, Deadlocked: false, MeanLatencyCycles: 37.23076923076923, MaxLatencyCycles: 169, PeakBufferFlits: 1},
	"d16_industrial/abl2":      {Cycles: 697, Injected: 208, Delivered: 208, Deadlocked: false, MeanLatencyCycles: 25.745192307692307, MaxLatencyCycles: 229, PeakBufferFlits: 2},
	"d16_industrial/abl4":      {Cycles: 452, Injected: 208, Delivered: 208, Deadlocked: false, MeanLatencyCycles: 21.41826923076923, MaxLatencyCycles: 92, PeakBufferFlits: 4},
	"d16_industrial/abl8":      {Cycles: 503, Injected: 208, Delivered: 208, Deadlocked: false, MeanLatencyCycles: 30.552884615384617, MaxLatencyCycles: 335, PeakBufferFlits: 8},
	"d48_network/defaults":     {Cycles: 259, Injected: 300, Delivered: 300, Deadlocked: false, MeanLatencyCycles: 20.37, MaxLatencyCycles: 98, PeakBufferFlits: 4},
	"d48_network/pkts8":        {Cycles: 543, Injected: 600, Delivered: 600, Deadlocked: false, MeanLatencyCycles: 21.583333333333332, MaxLatencyCycles: 98, PeakBufferFlits: 4},
	"d48_network/buf1":         {Cycles: 650, Injected: 300, Delivered: 300, Deadlocked: false, MeanLatencyCycles: 33.95333333333333, MaxLatencyCycles: 406, PeakBufferFlits: 1},
	"d48_network/abl1":         {Cycles: 1300, Injected: 600, Delivered: 600, Deadlocked: false, MeanLatencyCycles: 35.31, MaxLatencyCycles: 726, PeakBufferFlits: 1},
	"d48_network/abl2":         {Cycles: 717, Injected: 600, Delivered: 600, Deadlocked: false, MeanLatencyCycles: 25.15, MaxLatencyCycles: 312, PeakBufferFlits: 2},
	"d48_network/abl4":         {Cycles: 543, Injected: 600, Delivered: 600, Deadlocked: false, MeanLatencyCycles: 21.93166666666667, MaxLatencyCycles: 98, PeakBufferFlits: 4},
	"d48_network/abl8":         {Cycles: 578, Injected: 600, Delivered: 600, Deadlocked: false, MeanLatencyCycles: 30.705, MaxLatencyCycles: 191, PeakBufferFlits: 8},
	"d20_wearable/defaults":    {Cycles: 220, Injected: 124, Delivered: 124, Deadlocked: false, MeanLatencyCycles: 21.975806451612904, MaxLatencyCycles: 121, PeakBufferFlits: 4},
	"d20_wearable/pkts8":       {Cycles: 432, Injected: 248, Delivered: 248, Deadlocked: false, MeanLatencyCycles: 22.774193548387096, MaxLatencyCycles: 225, PeakBufferFlits: 4},
	"d20_wearable/buf1":        {Cycles: 787, Injected: 124, Delivered: 124, Deadlocked: false, MeanLatencyCycles: 55.57258064516129, MaxLatencyCycles: 426, PeakBufferFlits: 1},
	"d20_wearable/abl1":        {Cycles: 1567, Injected: 248, Delivered: 248, Deadlocked: false, MeanLatencyCycles: 56.729838709677416, MaxLatencyCycles: 598, PeakBufferFlits: 1},
	"d20_wearable/abl2":        {Cycles: 800, Injected: 248, Delivered: 248, Deadlocked: false, MeanLatencyCycles: 33.26209677419355, MaxLatencyCycles: 497, PeakBufferFlits: 2},
	"d20_wearable/abl4":        {Cycles: 432, Injected: 248, Delivered: 248, Deadlocked: false, MeanLatencyCycles: 22.951612903225808, MaxLatencyCycles: 225, PeakBufferFlits: 4},
	"d20_wearable/abl8":        {Cycles: 327, Injected: 248, Delivered: 248, Deadlocked: false, MeanLatencyCycles: 27.080645161290324, MaxLatencyCycles: 203, PeakBufferFlits: 8},
	"ring/buf2":                {Cycles: 10007, Injected: 4, Delivered: 0, Deadlocked: true, MeanLatencyCycles: 0, MaxLatencyCycles: 0, PeakBufferFlits: 2},
	"ring/buf8":                {Cycles: 10012, Injected: 4, Delivered: 0, Deadlocked: true, MeanLatencyCycles: 0, MaxLatencyCycles: 0, PeakBufferFlits: 8},
}
