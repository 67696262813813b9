package topology

import (
	"testing"
	"unsafe"

	"nocvi/internal/soc"
)

// TestIDFootprintPinned pins the sizes of the structs every published
// design point copies, as laid out on 64-bit targets with 32-bit IDs.
// A new field or a wider ID type grows every kept point of a sweep;
// that must be a deliberate change to this table.
func TestIDFootprintPinned(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned sizes are for 64-bit targets")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"topology.Route", unsafe.Sizeof(Route{}), 72},
		{"topology.Path", unsafe.Sizeof(Path{}), 24},
		{"topology.Link", unsafe.Sizeof(Link{}), 24},
		{"topology.Switch", unsafe.Sizeof(Switch{}), 8},
		{"soc.Flow", unsafe.Sizeof(soc.Flow{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
