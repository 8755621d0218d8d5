package membank

import (
	"sync"
	"testing"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/stats"
)

// TestParallelDistinctBanks proves the package's concurrency contract
// under the race detector: one goroutine per bank, each hammering only
// its own bank's addresses (la ≡ bank mod B), needs no locks. Any
// hidden sharing between banks — a stray global in a scheme, a shared
// RNG, a common counter — would trip -race here before it could
// corrupt a serving deployment like internal/memserver.
func TestParallelDistinctBanks(t *testing.T) {
	const banks = 8
	writes := 4000
	if testing.Short() {
		writes = 800
	}
	m, err := New(banks, 4096, bankCfg(), srbsgFactory)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for b := 0; b < banks; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(b) + 99)
			perBank := m.Lines() / banks
			for i := 0; i < writes; i++ {
				la := uint64(b) + rng.Uint64n(perBank)*banks // stays in bank b
				m.Write(la, pcm.Content(rng.Uint64n(3)))
				if i%7 == 0 {
					m.Read(la)
				}
			}
		}(b)
	}
	wg.Wait()

	// Every bank served exactly its own traffic: the interleaving
	// cannot have leaked writes (or remapping state) across banks.
	for b := 0; b < banks; b++ {
		if got := m.Bank(b).DemandWrites(); got != uint64(writes) {
			t.Errorf("bank %d: %d demand writes, want %d", b, got, writes)
		}
		if err := schemetest.CheckBijection(m.Bank(b).Scheme()); err != nil {
			t.Errorf("bank %d mapping corrupted: %v", b, err)
		}
	}
}

// TestBankIndependenceUnderParallelism re-checks the paper's isolation
// property in the concurrent setting: banks left idle while the others
// are hammered in parallel must not advance at all.
func TestBankIndependenceUnderParallelism(t *testing.T) {
	const banks = 8
	m, err := New(banks, 4096, bankCfg(), srbsgFactory)
	if err != nil {
		t.Fatal(err)
	}
	idle := map[int]bool{2: true, 5: true}
	var wg sync.WaitGroup
	for b := 0; b < banks; b++ {
		if idle[b] {
			continue
		}
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(b) + 7)
			for i := 0; i < 1000; i++ {
				m.Write(uint64(b)+rng.Uint64n(512)*banks, pcm.Ones)
			}
		}(b)
	}
	wg.Wait()
	for b := range idle {
		c := m.Bank(b)
		if c.DemandWrites() != 0 || c.RemapEvents() != 0 {
			t.Errorf("idle bank %d advanced: %d writes, %d remaps",
				b, c.DemandWrites(), c.RemapEvents())
		}
		if _, w := c.Bank().MaxWear(); w != 0 {
			t.Errorf("idle bank %d shows wear %d", b, w)
		}
	}
}
