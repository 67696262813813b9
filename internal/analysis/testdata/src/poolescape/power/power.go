// Package power mimics the real power package: its Scratch is a pooled
// arena type (matched by package base + type name).
package power

type Scratch struct {
	Traffic []float64
}
