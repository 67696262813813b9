// Package export is outside the rule's packages: its conversions are
// not decoded input and stay clean.
package export

import "fixture/narrowid/topology"

func Link(n int64) topology.LinkID { return topology.LinkID(n) }
