// Package soc mimics the real soc package: two 32-bit ID types and the
// checked conversion into them.
package soc

type CoreID int32

type IslandID int32

// NarrowID stands in for the checked helper; the rule does not cover
// this package, so its own conversion is clean.
func NarrowID[T ~int32](field string, v int) (T, error) { return T(v), nil }
