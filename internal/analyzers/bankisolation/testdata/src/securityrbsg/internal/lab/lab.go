// Package lab exercises the bankisolation rules from a simulation
// package (any package outside the exempt actor layer).
package lab

import (
	"securityrbsg/internal/membank"
	"securityrbsg/internal/parallel"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/seclevel"
)

func capture() {
	bank := membank.New(8)
	go func() {
		bank.Write(0) // want `"bank" \(membank\.Bank\) is captured by a goroutine`
	}()
}

func adaptiveCapture() {
	scheme := seclevel.New(8)
	go func() {
		scheme.Write(0) // want `"scheme" \(seclevel\.Adaptive\) is captured by a goroutine`
	}()
}

func argEscape() {
	bank := membank.New(8)
	go hammer(bank) // want `membank\.Bank escapes into a goroutine`
}

func hammer(b *membank.Bank) { b.Write(0) }

func methodSpawn() {
	bank := membank.New(8)
	go bank.Write(0) // want `method of membank\.Bank runs on a goroutine`
}

func workers() {
	bank := membank.New(8)
	parallel.ForEach(4, 2, func(i int) {
		bank.Write(uint64(i)) // want `"bank" \(membank\.Bank\) is captured by parallel\.ForEach workers`
	})
}

func perGoroutine(n int) {
	for i := 0; i < n; i++ {
		go func() {
			bank := membank.New(8) // constructed inside: each goroutine owns its own
			bank.Write(0)
		}()
	}
}

func values(c pcm.Content) {
	go func() {
		_ = c // named basic kind: sharing a copy of a number is fine
	}()
}

func allowed() {
	bank := membank.New(8)
	go func() {
		//rbsglint:allow bankisolation -- fixture: ownership handed off; spawner never touches bank again
		bank.Write(0)
	}()
}
