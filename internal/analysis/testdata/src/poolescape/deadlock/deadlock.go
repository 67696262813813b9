// Package deadlock mimics the real deadlock package: its Scratch is a
// pooled arena type (matched by package base + type name).
package deadlock

type Scratch struct {
	Succ []int32
}
