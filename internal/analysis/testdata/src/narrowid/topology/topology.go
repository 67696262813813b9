// Package topology mimics the real topology package's ID types.
package topology

type SwitchID int32

type LinkID int32

// Path holds a link walk.
type Path struct {
	Links []LinkID
}
