// Package topology mimics the real topology package's ID types.
package topology

type SwitchID int32

type LinkID int32

// Path holds a switch walk.
type Path struct {
	Switches []SwitchID
}
