package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/topology"
)

// pin is the recorded outcome of one run: its packet counts, its mean
// latency and a digest of everything it returned (%v prints each
// float64 in its shortest exact form, so the digest is bit-exact).
type pin struct {
	Sent, Deliver int
	MeanLatencyNs float64
	Digest        string
}

func pinOf(res *Result, extra ...any) pin {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", *res)
	for _, x := range extra {
		fmt.Fprintf(h, "|%+v", x)
	}
	return pin{res.Sent, res.Deliver, res.MeanLatencyNs, fmt.Sprintf("%x", h.Sum(nil)[:8])}
}

// suiteWinners synthesizes the power winner of every bundled benchmark,
// in bench.Names() order.
func suiteWinners(t testing.TB) []*topology.Topology {
	t.Helper()
	var tops []*topology.Topology
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(spec, model.Default65nm(), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tops = append(tops, res.Best().Top)
	}
	return tops
}

// TestExactOutputsPinned pins the simulator's complete Result on the
// power winner of every bundled benchmark: at the defaults, in
// single-packet mode, at load scales 0.25 and 8, with the first
// shut-downable island gated, and for RunTraced (with its trace)
// followed by Replay of that trace. The values were recorded before
// the injection scheduler was rewritten; any change in injection order
// or timing moves at least one of them.
func TestExactOutputsPinned(t *testing.T) {
	got := map[string]pin{}
	for i, top := range suiteWinners(t) {
		name, spec := bench.Names()[i], top.Spec
		cfgs := []struct {
			name string
			cfg  Config
		}{
			{"defaults", Config{}},
			{"single", Config{SinglePacket: true}},
			{"scale0.25", Config{InjectionScale: 0.25}},
			{"scale8", Config{InjectionScale: 8}},
		}
		for i, isl := range spec.Islands {
			if isl.Shutdownable {
				off := make([]bool, len(spec.Islands))
				off[i] = true
				cfgs = append(cfgs, struct {
					name string
					cfg  Config
				}{"off1", Config{Off: off}})
				break
			}
		}
		for _, c := range cfgs {
			res, err := Run(top, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.name, err)
			}
			got[name+"/"+c.name] = pinOf(res)
		}
		res, tr, err := RunTraced(top, Config{})
		if err != nil {
			t.Fatalf("%s/traced: %v", name, err)
		}
		got[name+"/traced"] = pinOf(res, *tr)
		rep, err := Replay(top, tr)
		if err != nil {
			t.Fatalf("%s/replay: %v", name, err)
		}
		got[name+"/replay"] = pinOf(rep)
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

// pinnedResults holds the recorded runs, keyed design/config.
var pinnedResults = map[string]pin{
	"d26_media/defaults":        {Sent: 886, Deliver: 886, MeanLatencyNs: 160.21781504174288, Digest: "3c02ae6948d4ac24"},
	"d26_media/single":          {Sent: 42, Deliver: 42, MeanLatencyNs: 151.87301587305652, Digest: "39167dbce931f4a3"},
	"d26_media/scale0.25":       {Sent: 232, Deliver: 232, MeanLatencyNs: 137.68377120963328, Digest: "68787437f30c7028"},
	"d26_media/scale8":          {Sent: 7040, Deliver: 7040, MeanLatencyNs: 25619.64308712111, Digest: "e48bca437df23c95"},
	"d26_media/off1":            {Sent: 281, Deliver: 281, MeanLatencyNs: 144.51448906964924, Digest: "07ef8b1c9160237b"},
	"d26_media/traced":          {Sent: 886, Deliver: 886, MeanLatencyNs: 160.21781504174288, Digest: "9c46466e66e2139b"},
	"d26_media/replay":          {Sent: 886, Deliver: 886, MeanLatencyNs: 160.21781504174288, Digest: "3c02ae6948d4ac24"},
	"d38_settop/defaults":       {Sent: 1603, Deliver: 1603, MeanLatencyNs: 161.137405209971, Digest: "21c2feb7170d3ca6"},
	"d38_settop/single":         {Sent: 64, Deliver: 64, MeanLatencyNs: 151.92857142854882, Digest: "4054cf8d441ad6cd"},
	"d38_settop/scale0.25":      {Sent: 408, Deliver: 408, MeanLatencyNs: 133.53246426649082, Digest: "072d4f8b8b03603e"},
	"d38_settop/scale8":         {Sent: 12761, Deliver: 12761, MeanLatencyNs: 25778.600532321794, Digest: "bfcad2c7ce6aaaa1"},
	"d38_settop/off1":           {Sent: 1084, Deliver: 1084, MeanLatencyNs: 193.2273887459215, Digest: "d65d9b295bba6fb4"},
	"d38_settop/traced":         {Sent: 1603, Deliver: 1603, MeanLatencyNs: 161.137405209971, Digest: "9b023887de858d3d"},
	"d38_settop/replay":         {Sent: 1603, Deliver: 1603, MeanLatencyNs: 161.137405209971, Digest: "21c2feb7170d3ca6"},
	"d35_tablet/defaults":       {Sent: 1710, Deliver: 1710, MeanLatencyNs: 122.32711540337141, Digest: "94bdfb85210f10d4"},
	"d35_tablet/single":         {Sent: 58, Deliver: 58, MeanLatencyNs: 148.97387669808913, Digest: "50517b3d5035215c"},
	"d35_tablet/scale0.25":      {Sent: 436, Deliver: 436, MeanLatencyNs: 94.18492447779343, Digest: "eba1ac9da19bce67"},
	"d35_tablet/scale8":         {Sent: 13628, Deliver: 13628, MeanLatencyNs: 24486.02164906666, Digest: "9cdf728085f7df6c"},
	"d35_tablet/off1":           {Sent: 712, Deliver: 712, MeanLatencyNs: 169.58882240364133, Digest: "1487787f0eaf7c76"},
	"d35_tablet/traced":         {Sent: 1710, Deliver: 1710, MeanLatencyNs: 122.32711540337141, Digest: "3fc9d16d0eefc430"},
	"d35_tablet/replay":         {Sent: 1710, Deliver: 1710, MeanLatencyNs: 122.32711540337141, Digest: "94bdfb85210f10d4"},
	"d30_basestation/defaults":  {Sent: 1381, Deliver: 1381, MeanLatencyNs: 62.89229054281492, Digest: "42bbb2251b2fc21f"},
	"d30_basestation/single":    {Sent: 43, Deliver: 43, MeanLatencyNs: 45.906976744214475, Digest: "21540ac56d7d7d0f"},
	"d30_basestation/scale0.25": {Sent: 351, Deliver: 351, MeanLatencyNs: 47.14096364833917, Digest: "8fa9d92b324b62ee"},
	"d30_basestation/scale8":    {Sent: 11023, Deliver: 11023, MeanLatencyNs: 21519.249165456902, Digest: "92b388858e9c3494"},
	"d30_basestation/traced":    {Sent: 1381, Deliver: 1381, MeanLatencyNs: 62.89229054281492, Digest: "90db68b54b8747f5"},
	"d30_basestation/replay":    {Sent: 1381, Deliver: 1381, MeanLatencyNs: 62.89229054281492, Digest: "42bbb2251b2fc21f"},
	"d24_auto/defaults":         {Sent: 1164, Deliver: 1164, MeanLatencyNs: 169.75894594903292, Digest: "ea164528b2bfd141"},
	"d24_auto/single":           {Sent: 39, Deliver: 39, MeanLatencyNs: 176.03418803418904, Digest: "8408124b10127714"},
	"d24_auto/scale0.25":        {Sent: 298, Deliver: 298, MeanLatencyNs: 122.58272306925566, Digest: "17128f0a60712ef1"},
	"d24_auto/scale8":           {Sent: 9261, Deliver: 9261, MeanLatencyNs: 25622.594663257874, Digest: "b893a2a56b84b639"},
	"d24_auto/off1":             {Sent: 451, Deliver: 451, MeanLatencyNs: 226.54603901339797, Digest: "1007b84b84726777"},
	"d24_auto/traced":           {Sent: 1164, Deliver: 1164, MeanLatencyNs: 169.75894594903292, Digest: "4e6e089a7b8fe891"},
	"d24_auto/replay":           {Sent: 1164, Deliver: 1164, MeanLatencyNs: 169.75894594903292, Digest: "ea164528b2bfd141"},
	"d16_industrial/defaults":   {Sent: 789, Deliver: 789, MeanLatencyNs: 80.40834077091404, Digest: "b7aa242ac8743005"},
	"d16_industrial/single":     {Sent: 26, Deliver: 26, MeanLatencyNs: 78.97435897437596, Digest: "4c37e448f26bbc34"},
	"d16_industrial/scale0.25":  {Sent: 200, Deliver: 200, MeanLatencyNs: 47.17962675873619, Digest: "1cbf0228c36a8342"},
	"d16_industrial/scale8":     {Sent: 6294, Deliver: 6294, MeanLatencyNs: 23977.088359409256, Digest: "5d1668f282e1702f"},
	"d16_industrial/off1":       {Sent: 788, Deliver: 788, MeanLatencyNs: 80.07890973128322, Digest: "92d5b03d24f823cd"},
	"d16_industrial/traced":     {Sent: 789, Deliver: 789, MeanLatencyNs: 80.40834077091404, Digest: "5de69e58cacb9dbb"},
	"d16_industrial/replay":     {Sent: 789, Deliver: 789, MeanLatencyNs: 80.40834077091404, Digest: "b7aa242ac8743005"},
	"d48_network/defaults":      {Sent: 2009, Deliver: 2009, MeanLatencyNs: 63.72232602462705, Digest: "2e6c7fa1b58bb8f4"},
	"d48_network/single":        {Sent: 75, Deliver: 75, MeanLatencyNs: 58.666666666718605, Digest: "cc544f6b258ecc10"},
	"d48_network/scale0.25":     {Sent: 508, Deliver: 508, MeanLatencyNs: 45.021764233826474, Digest: "ca1a99470527ef18"},
	"d48_network/scale8":        {Sent: 15997, Deliver: 15997, MeanLatencyNs: 20754.42733666422, Digest: "5962cf45c8d83821"},
	"d48_network/off1":          {Sent: 1992, Deliver: 1992, MeanLatencyNs: 60.20181425891883, Digest: "3ff22718cffc8f58"},
	"d48_network/traced":        {Sent: 2009, Deliver: 2009, MeanLatencyNs: 63.72232602462705, Digest: "87bb0caaa22511be"},
	"d48_network/replay":        {Sent: 2009, Deliver: 2009, MeanLatencyNs: 63.72232602462705, Digest: "2e6c7fa1b58bb8f4"},
	"d20_wearable/defaults":     {Sent: 662, Deliver: 662, MeanLatencyNs: 122.02641421736438, Digest: "8d5c06dd082243e7"},
	"d20_wearable/single":       {Sent: 31, Deliver: 31, MeanLatencyNs: 133.8709677419749, Digest: "e35fe63d61a8a4aa"},
	"d20_wearable/scale0.25":    {Sent: 171, Deliver: 171, MeanLatencyNs: 115.19717866457043, Digest: "0810b128ba17476d"},
	"d20_wearable/scale8":       {Sent: 5247, Deliver: 5247, MeanLatencyNs: 24414.99417979419, Digest: "c6c07ea3d5507fcb"},
	"d20_wearable/off1":         {Sent: 109, Deliver: 109, MeanLatencyNs: 69.6276858329943, Digest: "a826cac6086a7798"},
	"d20_wearable/traced":       {Sent: 662, Deliver: 662, MeanLatencyNs: 122.02641421736438, Digest: "e0d3d0770f856dde"},
	"d20_wearable/replay":       {Sent: 662, Deliver: 662, MeanLatencyNs: 122.02641421736438, Digest: "8d5c06dd082243e7"},
}
