// Package specio exercises narrowid in a decoder of external input:
// every conversion of an unbounded integer into an ID is flagged.
package specio

import (
	"fixture/narrowid/soc"
	"fixture/narrowid/topology"
)

type linkJSON struct {
	From, To int
	Island   int64
}

func readLink(l linkJSON) (topology.SwitchID, topology.SwitchID) {
	return topology.SwitchID(l.From), topology.SwitchID(l.To) // want narrowid "unchecked conversion into topology.SwitchID" want narrowid "unchecked conversion into topology.SwitchID"
}

func readIsland(l linkJSON) soc.IslandID {
	return soc.IslandID(l.Island) // want narrowid "unchecked conversion into soc.IslandID"
}

func readArith(n int) topology.LinkID {
	return topology.LinkID(n - 1) // want narrowid "unchecked conversion into topology.LinkID"
}

// readRoute takes a route's flow index straight from the input.
func readRoute(flow int) topology.Route {
	return topology.Route{Flow: soc.FlowID(flow)} // want narrowid "unchecked conversion into soc.FlowID"
}

// convert is generic: its conversion may instantiate with an ID type.
func convert[To ~int | ~int32](ids []int) []To {
	out := make([]To, len(ids))
	for i, id := range ids {
		out[i] = To(id) // want narrowid "unchecked conversion into type parameter To"
	}
	return out
}

func walk(ids []int) []topology.SwitchID { return convert[topology.SwitchID](ids) }

// rangeOverInt ranges over a decoded count, which bounds nothing.
func rangeOverInt(n int) []soc.CoreID {
	var out []soc.CoreID
	for i := range n {
		out = append(out, soc.CoreID(i)) // want narrowid "unchecked conversion into soc.CoreID"
	}
	return out
}

// --- clean shapes below: no annotations, any finding fails ---

const first = 3

func constants() (soc.CoreID, topology.SwitchID) {
	return soc.CoreID(first), topology.SwitchID(-1)
}

func lengths(s []int, links []topology.LinkID) (soc.IslandID, topology.LinkID) {
	return soc.IslandID(len(s)), topology.LinkID(cap(links))
}

func dense(names []string) []soc.CoreID {
	out := make([]soc.CoreID, 0, len(names))
	for i := range names {
		out = append(out, soc.CoreID(i))
	}
	for i, n := range names {
		_ = n
		out = append(out, soc.CoreID(i))
	}
	return out
}

func checked(l linkJSON) (topology.SwitchID, error) {
	return soc.NarrowID[topology.SwitchID]("link from", l.From)
}

// widening out of an ID is not narrowing.
func widen(sw topology.SwitchID) int { return int(sw) }

// toInts converts into a type parameter that admits no int32.
func toInts[To ~int, From ~int32](ids []From) []To {
	out := make([]To, len(ids))
	for i, id := range ids {
		out[i] = To(id)
	}
	return out
}

func write(links []topology.LinkID) []int { return toInts[int](links) }

// flowIndex names a route's flow by its position in the spec's flows:
// a range index over them, which a len bounds.
func flowIndex(flows []linkJSON) []topology.Route {
	var out []topology.Route
	for i := range flows {
		out = append(out, topology.Route{Flow: soc.FlowID(i)})
	}
	return out
}
