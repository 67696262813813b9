// Package specio reads and writes SoC specifications and synthesized
// topologies as JSON, so the command-line tools can operate on custom
// designs rather than only the bundled benchmarks.
//
// The on-disk format uses human units and names: flows reference cores
// by name, bandwidths are MB/s, power is mW, clocks are MHz. Dense IDs
// are an implementation detail and are assigned on load.
package specio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// specJSON is the serialized form of soc.Spec.
type specJSON struct {
	Name    string       `json:"name"`
	Islands []islandJSON `json:"islands"`
	Cores   []coreJSON   `json:"cores"`
	Flows   []flowJSON   `json:"flows"`
}

type islandJSON struct {
	Name         string  `json:"name"`
	VoltageV     float64 `json:"voltage_v"`
	Shutdownable bool    `json:"shutdownable"`
}

type coreJSON struct {
	Name        string  `json:"name"`
	Class       string  `json:"class"`
	Island      string  `json:"island"`
	AreaMM2     float64 `json:"area_mm2"`
	FreqMHz     float64 `json:"freq_mhz,omitempty"`
	DynPowerMW  float64 `json:"dyn_power_mw"`
	LeakPowerMW float64 `json:"leak_power_mw"`
}

type flowJSON struct {
	Src              string  `json:"src"`
	Dst              string  `json:"dst"`
	BandwidthMBps    float64 `json:"bandwidth_mbps"`
	MaxLatencyCycles float64 `json:"max_latency_cycles,omitempty"`
}

// WriteSpec serializes a spec as indented JSON.
func WriteSpec(w io.Writer, s *soc.Spec) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("specio: refusing to write invalid spec: %w", err)
	}
	out := specJSON{Name: s.Name}
	for _, isl := range s.Islands {
		out.Islands = append(out.Islands, islandJSON{
			Name: isl.Name, VoltageV: isl.VoltageV, Shutdownable: isl.Shutdownable,
		})
	}
	for i, c := range s.Cores {
		out.Cores = append(out.Cores, coreJSON{
			Name:        c.Name,
			Class:       c.Class.String(),
			Island:      s.Islands[s.IslandOf[i]].Name,
			AreaMM2:     c.AreaMM2,
			FreqMHz:     c.FreqHz / 1e6,
			DynPowerMW:  c.DynPowerW * 1e3,
			LeakPowerMW: c.LeakPowerW * 1e3,
		})
	}
	for _, f := range s.Flows {
		out.Flows = append(out.Flows, flowJSON{
			Src:              s.Cores[f.Src].Name,
			Dst:              s.Cores[f.Dst].Name,
			BandwidthMBps:    f.BandwidthBps / 1e6,
			MaxLatencyCycles: f.MaxLatencyCycles,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadSpec parses a JSON spec, resolving names to dense IDs and
// validating the result.
func ReadSpec(r io.Reader) (*soc.Spec, error) {
	var in specJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	s := &soc.Spec{Name: in.Name}
	islandID := make(map[string]soc.IslandID, len(in.Islands))
	for i, isl := range in.Islands {
		if _, dup := islandID[isl.Name]; dup {
			return nil, fmt.Errorf("specio: duplicate island %q", isl.Name)
		}
		islandID[isl.Name] = soc.IslandID(i)
		s.Islands = append(s.Islands, soc.Island{
			ID: soc.IslandID(i), Name: isl.Name,
			VoltageV: isl.VoltageV, Shutdownable: isl.Shutdownable,
		})
	}
	coreID := make(map[string]soc.CoreID, len(in.Cores))
	for i, c := range in.Cores {
		if _, dup := coreID[c.Name]; dup {
			return nil, fmt.Errorf("specio: duplicate core %q", c.Name)
		}
		class, err := soc.ParseClass(c.Class)
		if err != nil {
			return nil, fmt.Errorf("specio: core %q: %w", c.Name, err)
		}
		isl, ok := islandID[c.Island]
		if !ok {
			return nil, fmt.Errorf("specio: core %q references unknown island %q", c.Name, c.Island)
		}
		coreID[c.Name] = soc.CoreID(i)
		s.Cores = append(s.Cores, soc.Core{
			ID: soc.CoreID(i), Name: c.Name, Class: class,
			AreaMM2:    c.AreaMM2,
			FreqHz:     c.FreqMHz * 1e6,
			DynPowerW:  c.DynPowerMW / 1e3,
			LeakPowerW: c.LeakPowerMW / 1e3,
		})
		s.IslandOf = append(s.IslandOf, isl)
	}
	for i, f := range in.Flows {
		src, ok := coreID[f.Src]
		if !ok {
			return nil, fmt.Errorf("specio: flow %d references unknown core %q", i, f.Src)
		}
		dst, ok := coreID[f.Dst]
		if !ok {
			return nil, fmt.Errorf("specio: flow %d references unknown core %q", i, f.Dst)
		}
		s.Flows = append(s.Flows, soc.Flow{
			Src: src, Dst: dst,
			BandwidthBps:     f.BandwidthMBps * 1e6,
			MaxLatencyCycles: f.MaxLatencyCycles,
		})
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	return s, nil
}

// SaveSpec writes the spec to a file.
func SaveSpec(path string, s *soc.Spec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteSpec(f, s); err != nil {
		return err
	}
	return f.Close()
}

// LoadSpec reads a spec from a file.
func LoadSpec(path string) (*soc.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpec(f)
}

// topoJSON is the serialized form of a synthesized topology, written by
// WriteTopology and read back, against its spec, by ReadTopology.
type topoJSON struct {
	Spec     string         `json:"spec"`
	Islands  []topoIsland   `json:"islands"`
	Switches []topoSwitch   `json:"switches"`
	Links    []topoLink     `json:"links"`
	Routes   []topoRoute    `json:"routes"`
	NIs      []topoNIAttach `json:"network_interfaces"`
}

type topoIsland struct {
	ID           int     `json:"id"`
	Name         string  `json:"name"`
	FreqMHz      float64 `json:"freq_mhz"`
	VoltageV     float64 `json:"voltage_v"`
	Shutdownable bool    `json:"shutdownable"`
	Intermediate bool    `json:"intermediate,omitempty"`
}

type topoSwitch struct {
	ID       int  `json:"id"`
	Island   int  `json:"island"`
	Indirect bool `json:"indirect,omitempty"`
	Size     int  `json:"size"`
}

type topoLink struct {
	From        int     `json:"from"`
	To          int     `json:"to"`
	Crossing    bool    `json:"bisync_fifo,omitempty"`
	TrafficMBps float64 `json:"traffic_mbps"`
	CapMBps     float64 `json:"capacity_mbps"`
	LengthMM    float64 `json:"length_mm,omitempty"`
}

type topoRoute struct {
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	Switches []int  `json:"switches"`

	// Backups holds the switch walks of a survivable design's cold
	// standby routes (topology.Route.Backups); omitted when there are
	// none, so a k=0 design serializes as it always has.
	Backups [][]int `json:"backups,omitempty"`
}

type topoNIAttach struct {
	Core   string `json:"core"`
	Switch int    `json:"switch"`
}

// WriteTopology serializes a synthesized topology as indented JSON for
// downstream tooling (floorplan viewers, RTL generators, ...).
func WriteTopology(w io.Writer, top *topology.Topology) error {
	out := topoJSON{Spec: top.Spec.Name}
	for i := 0; i < top.NumIslands(); i++ {
		ti := topoIsland{
			ID:      i,
			FreqMHz: top.IslandFreqHz[i] / 1e6, VoltageV: top.IslandVoltage[i],
		}
		if i < len(top.Spec.Islands) {
			ti.Name = top.Spec.Islands[i].Name
			ti.Shutdownable = top.Spec.Islands[i].Shutdownable
		} else {
			ti.Name = "noc_vi"
			ti.Intermediate = true
		}
		out.Islands = append(out.Islands, ti)
	}
	for i, s := range top.Switches {
		out.Switches = append(out.Switches, topoSwitch{
			ID: i, Island: int(s.Island), Indirect: s.Indirect,
			Size: top.SwitchSize(topology.SwitchID(i)),
		})
	}
	for _, l := range top.Links {
		out.Links = append(out.Links, topoLink{
			From: int(l.From), To: int(l.To), Crossing: top.CrossesIslands(l.From, l.To),
			TrafficMBps: l.TrafficBps / 1e6, CapMBps: top.CapacityBps(l.From, l.To) / 1e6,
			LengthMM: l.LengthMM,
		})
	}
	var walk []topology.SwitchID
	for ri := range top.Routes {
		r := &top.Routes[ri]
		walk = top.Walk(walk, r.Flow, r.Links)
		tr := topoRoute{
			Src: top.Spec.Cores[r.Flow.Src].Name, Dst: top.Spec.Cores[r.Flow.Dst].Name,
			Switches: intWalk(walk),
		}
		for _, b := range r.Backups {
			walk = top.Walk(walk, r.Flow, b.Links)
			tr.Backups = append(tr.Backups, intWalk(walk))
		}
		out.Routes = append(out.Routes, tr)
	}
	for c, sw := range top.SwitchOf {
		if sw >= 0 {
			out.NIs = append(out.NIs, topoNIAttach{Core: top.Spec.Cores[c].Name, Switch: int(sw)})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// intWalk converts a walk of switch IDs into its JSON form;
// readWalk is its checked inverse.
func intWalk(ids []topology.SwitchID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// addRoute adds rt, the JSON route of flow f, to the built top as
// route ri, its backups included. Each walk narrows into the reused
// scratch *walk and resolves into fresh link storage through
// top.WalkLinks; AddRoute and AddBackup check the links.
func addRoute(top *topology.Topology, ri int, f soc.Flow, rt topoRoute, walk *[]topology.SwitchID) error {
	links, err := readWalk(top, f, walk, "route switch", rt.Switches)
	if err != nil {
		return err
	}
	if err := top.AddRoute(topology.Route{Flow: f, Links: links}); err != nil {
		return err
	}
	for _, b := range rt.Backups {
		if links, err = readWalk(top, f, walk, "backup switch", b); err != nil {
			return err
		}
		if err := top.AddBackup(ri, topology.Path{Links: links}); err != nil {
			return err
		}
	}
	return nil
}

// readWalk narrows the JSON switch walk ids of a route or backup of
// flow f into *walk (each ID named field in an error) and resolves it
// with top.WalkLinks.
func readWalk(top *topology.Topology, f soc.Flow, walk *[]topology.SwitchID, field string, ids []int) ([]topology.LinkID, error) {
	w := (*walk)[:0]
	for _, id := range ids {
		sw, err := soc.NarrowID[topology.SwitchID](field, id)
		if err != nil {
			return nil, err
		}
		w = append(w, sw)
	}
	*walk = w
	return top.WalkLinks(f, w, nil)
}

// ReadTopology reconstructs a topology from JSON written by
// WriteTopology, resolving it against the original spec and a model
// library. It maps the JSON's names and IDs into the topology's
// construction fields, and topology.Build checks them and derives the
// rest; each route's and backup's switch walk then resolves into its
// links through WalkLinks and is checked by AddRoute or AddBackup.
// Every ID narrows through soc.NarrowID first, so a value past
// the 32-bit range is a *soc.IDRangeError rather than a wrapped ID. The
// result is fully validated, so externally edited topologies (e.g.
// hand-tuned link placements) are checked against the same rules the
// synthesis engine enforces.
func ReadTopology(r io.Reader, spec *soc.Spec, lib *model.Library) (*topology.Topology, error) {
	var in topoJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	if in.Spec != spec.Name {
		return nil, fmt.Errorf("specio: topology is for spec %q, got %q", in.Spec, spec.Name)
	}
	top := topology.New(spec, lib)
	for _, isl := range in.Islands {
		id, err := soc.NarrowID[soc.IslandID]("island id", isl.ID)
		if err != nil {
			return nil, fmt.Errorf("specio: %w", err)
		}
		switch {
		case isl.Intermediate:
			// A second intermediate island lengthens the tables past what
			// Build accepts.
			top.NoCIsland = id
			top.IslandFreqHz = append(top.IslandFreqHz, isl.FreqMHz*1e6)
			top.IslandVoltage = append(top.IslandVoltage, isl.VoltageV)
		case isl.ID < 0 || isl.ID >= len(spec.Islands):
			return nil, fmt.Errorf("specio: %w: island %d outside the spec", topology.ErrIslands, isl.ID)
		default:
			top.IslandFreqHz[isl.ID] = isl.FreqMHz * 1e6
			top.IslandVoltage[isl.ID] = isl.VoltageV
		}
	}
	for i, sw := range in.Switches {
		if sw.ID != i {
			return nil, fmt.Errorf("specio: switch ids must be dense (got %d, want %d)", sw.ID, i)
		}
		isl, err := soc.NarrowID[soc.IslandID]("switch island", sw.Island)
		if err != nil {
			return nil, fmt.Errorf("specio: %w", err)
		}
		top.Switches = append(top.Switches, topology.Switch{Island: isl, Indirect: sw.Indirect})
	}
	coreID := map[string]soc.CoreID{}
	for _, c := range spec.Cores {
		coreID[c.Name] = c.ID
	}
	for _, ni := range in.NIs {
		c, ok := coreID[ni.Core]
		if !ok {
			return nil, fmt.Errorf("specio: NI references unknown core %q", ni.Core)
		}
		if top.SwitchOf[c] != -1 {
			return nil, fmt.Errorf("specio: %w: core %q has a second NI", topology.ErrAttach, ni.Core)
		}
		sw, err := soc.NarrowID[topology.SwitchID]("NI switch", ni.Switch)
		if err != nil {
			return nil, fmt.Errorf("specio: %w", err)
		}
		top.SwitchOf[c] = sw
	}
	for _, l := range in.Links {
		from, err := soc.NarrowID[topology.SwitchID]("link from", l.From)
		if err != nil {
			return nil, fmt.Errorf("specio: %w", err)
		}
		to, err := soc.NarrowID[topology.SwitchID]("link to", l.To)
		if err != nil {
			return nil, fmt.Errorf("specio: %w", err)
		}
		top.Links = append(top.Links, topology.Link{From: from, To: to, LengthMM: l.LengthMM})
	}
	if err := top.Build(); err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	var walk []topology.SwitchID
	for ri, rt := range in.Routes {
		src, ok := coreID[rt.Src]
		if !ok {
			return nil, fmt.Errorf("specio: route references unknown core %q", rt.Src)
		}
		dst, ok := coreID[rt.Dst]
		if !ok {
			return nil, fmt.Errorf("specio: route references unknown core %q", rt.Dst)
		}
		f, ok := spec.FlowBetween(src, dst)
		if !ok {
			return nil, fmt.Errorf("specio: route %q->%q has no flow in the spec", rt.Src, rt.Dst)
		}
		if err := addRoute(top, ri, f, rt, &walk); err != nil {
			return nil, fmt.Errorf("specio: %w", err)
		}
	}
	if err := top.Validate(); err != nil {
		return nil, fmt.Errorf("specio: loaded topology invalid: %w", err)
	}
	return top, nil
}
