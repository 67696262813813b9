// Package topology mimics the real topology package's ID types and the
// route that names its flow by index.
package topology

import "fixture/narrowid/soc"

type SwitchID int32

type LinkID int32

// Path is a run of a link table.
type Path struct {
	Off, N int32
}

// Route names its flow by index.
type Route struct {
	Flow  soc.FlowID
	Links Path
}
