// Package cache exercises narrowid on a varint decoder.
package cache

import (
	"fixture/narrowid/soc"
	"fixture/narrowid/topology"
)

type dec struct{ b []int64 }

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
