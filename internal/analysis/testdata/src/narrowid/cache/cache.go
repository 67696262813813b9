// Package cache exercises narrowid on a varint decoder.
package cache

import (
	"fixture/narrowid/soc"
	"fixture/narrowid/topology"
)

type dec struct {
	b    []int64
	err  error
	walk []topology.SwitchID // reused scratch for stored switch walks
}

func (d *dec) i64() int64 {
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) flow() (soc.CoreID, soc.CoreID) {
	return soc.CoreID(d.i64()), soc.CoreID(int(d.i64())) // want narrowid "unchecked conversion into soc.CoreID" want narrowid "unchecked conversion into soc.CoreID"
}

func (d *dec) switchOf(n int) []topology.SwitchID {
	out := make([]topology.SwitchID, n)
	for c := range out {
		out[c] = topology.SwitchID(d.i64()) // want narrowid "unchecked conversion into topology.SwitchID"
	}
	return out
}

// path reads a stored switch walk into the decoder's reused scratch
// without narrowing it: an append into scratch is no safer than a
// fresh slice.
func (d *dec) path(n int) []topology.SwitchID {
	walk := d.walk[:0]
	for range n {
		walk = append(walk, topology.SwitchID(d.i64())) // want narrowid "unchecked conversion into topology.SwitchID"
	}
	d.walk = walk
	return walk
}

// --- clean shape below: no annotation, any finding fails ---

// checkedPath is path with every ID narrowed through soc.NarrowID.
func (d *dec) checkedPath(n int) []topology.SwitchID {
	walk := d.walk[:0]
	for range n {
		sw, err := soc.NarrowID[topology.SwitchID]("route switch", int(d.i64()))
		if err != nil && d.err == nil {
			d.err = err
		}
		walk = append(walk, sw)
	}
	d.walk = walk
	return walk
}
