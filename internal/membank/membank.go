// Package membank assembles per-bank wear-leveled PCM into one flat
// memory, the way the paper deploys Security RBSG: "implemented in the
// memory controller and manages each bank separately to avoid bank
// parallelism attack" (Section IV-A).
//
// Seong et al. broke the original RBSG by observing *bank-level
// parallelism*: when a wear-leveling region spans banks, an attacker can
// tell remapping movements apart by which banks stall. Giving every bank
// its own independent scheme (own keys, own counters, own gap lines)
// removes that signal: a request to bank k reveals nothing about any
// other bank's remapping state — a property the package tests verify
// directly (writes to one bank never advance another bank's wear-leveling
// state).
//
// Addresses interleave across banks at line granularity, the usual
// memory-controller layout: bank = addr mod B, line-within-bank =
// addr div B.
//
// # Concurrency contract: single writer per bank
//
// A Memory holds no locks. Its shared state — the banks slice and the
// line count — is immutable after New; everything mutable lives inside
// one bank's Controller/Scheme/pcm.Bank chain, none of which is safe
// for concurrent use. The deployment contract is therefore:
//
//   - Requests for different banks may run on different goroutines
//     concurrently, with no synchronization at all. Route, Banks, Lines
//     and Bank are read-only and always safe.
//   - All requests for one bank must come from one goroutine at a time,
//     or be externally serialized. internal/memserver gives every bank
//     one goroutine for the server's lifetime: W = min(GOMAXPROCS,
//     banks) executor goroutines, executor i serving every bank
//     b ≡ i (mod W). A goroutine may serve several banks; no bank is
//     ever served by two.
//
// TestParallelDistinctBanks pins the first two points under the race
// detector: hammering all banks from parallel goroutines, one goroutine
// per bank, is race-free and leaves every other bank's wear-leveling
// state untouched.
package membank

import (
	"fmt"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/wear"
)

// SchemeFactory builds one bank's wear-leveling scheme over `lines`
// logical lines; it is called once per bank with the bank index, so
// implementations can (and should) seed per-bank keys differently.
type SchemeFactory func(bank int, lines uint64) (wear.Scheme, error)

// Memory is a line-interleaved array of independently wear-leveled banks.
type Memory struct {
	banks []*wear.Controller
	lines uint64 // total logical lines across banks
}

// New builds a memory of `banks` banks, each holding lines/banks logical
// lines behind its own scheme instance. lines must divide evenly.
func New(banks int, lines uint64, bankCfg pcm.Config, factory SchemeFactory) (*Memory, error) {
	if banks <= 0 {
		return nil, fmt.Errorf("membank: need at least one bank")
	}
	if lines == 0 || lines%uint64(banks) != 0 {
		return nil, fmt.Errorf("membank: %d lines do not divide across %d banks", lines, banks)
	}
	perBank := lines / uint64(banks)
	m := &Memory{lines: lines, banks: make([]*wear.Controller, banks)}
	for i := range m.banks {
		scheme, err := factory(i, perBank)
		if err != nil {
			return nil, fmt.Errorf("membank: bank %d: %w", i, err)
		}
		if scheme.LogicalLines() != perBank {
			return nil, fmt.Errorf("membank: bank %d scheme covers %d lines, want %d",
				i, scheme.LogicalLines(), perBank)
		}
		ctrl, err := wear.NewController(bankCfg, scheme)
		if err != nil {
			return nil, fmt.Errorf("membank: bank %d: %w", i, err)
		}
		m.banks[i] = ctrl
	}
	return m, nil
}

// Banks returns the number of banks.
func (m *Memory) Banks() int { return len(m.banks) }

// Lines returns the total logical line count.
func (m *Memory) Lines() uint64 { return m.lines }

// Bank returns bank i's controller, for per-bank statistics.
func (m *Memory) Bank(i int) *wear.Controller { return m.banks[i] }

// Route splits a flat logical address into (bank, bank-local line).
func (m *Memory) Route(la uint64) (bank int, local uint64) {
	if la >= m.lines {
		panic(fmt.Errorf("membank: address %d out of space of %d lines", la, m.lines))
	}
	b := int(la % uint64(len(m.banks)))
	return b, la / uint64(len(m.banks))
}

// Write performs a demand write and returns the observed latency — the
// request only ever touches (and only ever reveals timing of) one bank.
func (m *Memory) Write(la uint64, content pcm.Content) uint64 {
	b, local := m.Route(la)
	return m.banks[b].Write(local, content)
}

// Read returns the content of la and the observed latency.
func (m *Memory) Read(la uint64) (pcm.Content, uint64) {
	b, local := m.Route(la)
	return m.banks[b].Read(local)
}
