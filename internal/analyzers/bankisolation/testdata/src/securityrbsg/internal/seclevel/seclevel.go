// Package seclevel is a fixture stub of the adaptive security-level
// wrapper: the per-bank state of the srbsg+adaptive scheme.
package seclevel

// Adaptive is single-writer simulation state.
type Adaptive struct{ writes uint64 }

// New returns a fresh adaptive scheme.
func New(lines uint64) *Adaptive { return &Adaptive{} }

// Write books one write.
func (a *Adaptive) Write(la uint64) { a.writes++ }
