package membank

import (
	"testing"

	"securityrbsg/internal/core"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

func bankCfg() pcm.Config {
	return pcm.Config{Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming}
}

func srbsgFactory(bank int, lines uint64) (wear.Scheme, error) {
	return core.New(core.Config{
		Lines: lines, Regions: 8, InnerInterval: 4,
		OuterInterval: 8, Stages: 4, Seed: uint64(bank) + 1,
	})
}

func memory(t *testing.T, banks int) *Memory {
	t.Helper()
	m, err := New(banks, 1024, bankCfg(), srbsgFactory)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 1024, bankCfg(), srbsgFactory); err == nil {
		t.Error("zero banks must fail")
	}
	if _, err := New(3, 1024, bankCfg(), srbsgFactory); err == nil {
		t.Error("non-dividing bank count must fail")
	}
	bad := func(bank int, lines uint64) (wear.Scheme, error) {
		return wear.NewPassthrough(lines / 2), nil
	}
	if _, err := New(4, 1024, bankCfg(), bad); err == nil {
		t.Error("mismatched scheme size must fail")
	}
}

func TestRouting(t *testing.T) {
	m := memory(t, 4)
	for la := uint64(0); la < 1024; la++ {
		b, local := m.Route(la)
		if uint64(b) != la%4 || local != la/4 {
			t.Fatalf("Route(%d) = (%d, %d)", la, b, local)
		}
	}
	if m.Banks() != 4 || m.Lines() != 1024 {
		t.Fatal("metadata")
	}
}

func TestReadBackAcrossBanks(t *testing.T) {
	m := memory(t, 4)
	for la := uint64(0); la < 1024; la += 37 {
		m.Write(la, pcm.Ones)
	}
	for la := uint64(0); la < 1024; la += 37 {
		if c, _ := m.Read(la); c != pcm.Ones {
			t.Fatalf("LA %d lost its data", la)
		}
	}
}

// TestBankIsolation is the defense against the bank-parallelism attack:
// traffic to one bank never advances another bank's wear-leveling state,
// so its request latencies carry no cross-bank information.
func TestBankIsolation(t *testing.T) {
	m := memory(t, 4)
	before := make([]uint64, 4)
	for i := range before {
		before[i] = m.Bank(i).RemapEvents()
	}
	// Hammer only addresses routed to bank 2.
	for i := 0; i < 10000; i++ {
		m.Write(2+uint64(i%256)*4, pcm.Mixed)
	}
	for i := 0; i < 4; i++ {
		delta := m.Bank(i).RemapEvents() - before[i]
		if i == 2 && delta == 0 {
			t.Fatal("the hammered bank never remapped")
		}
		if i != 2 && delta != 0 {
			t.Fatalf("bank %d remapped %d times without receiving traffic", i, delta)
		}
	}
}

// TestPerBankKeysDiffer: the factory seeds banks independently, so the
// same local address maps differently in different banks.
func TestPerBankKeysDiffer(t *testing.T) {
	m := memory(t, 4)
	same := 0
	for local := uint64(0); local < 256; local++ {
		if m.Bank(0).Scheme().Translate(local) == m.Bank(1).Scheme().Translate(local) {
			same++
		}
	}
	if same > 32 {
		t.Fatalf("banks share %d/256 mappings — keys not independent", same)
	}
}

// anyFailed reports whether any bank has a failed line, and where. Like
// the other whole-memory inspectors below it reads every bank, so it
// runs only while no bank is being driven.
func anyFailed(m *Memory) (bank int, pa uint64, failed bool) {
	for i, c := range m.banks {
		if p, _, ok := c.Bank().FirstFailure(); ok {
			return i, p, true
		}
	}
	return 0, 0, false
}

// totalDemandWrites sums demand writes across banks.
func totalDemandWrites(m *Memory) uint64 {
	var n uint64
	for _, c := range m.banks {
		n += c.DemandWrites()
	}
	return n
}

// maxWear returns the most-worn line anywhere: its bank, physical
// address and wear count.
func maxWear(m *Memory) (bank int, pa uint64, wearCount uint64) {
	for i, c := range m.banks {
		p, w := c.Bank().MaxWear()
		if w > wearCount {
			bank, pa, wearCount = i, p, w
		}
	}
	return
}

func TestFailureSurfacing(t *testing.T) {
	cfg := bankCfg()
	cfg.Endurance = 200
	m, err := New(2, 512, cfg, srbsgFactory)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, failed := anyFailed(m); failed {
		t.Fatal("fresh memory reports failure")
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 2_000_000; i++ {
		m.Write(rng.Uint64n(512), pcm.Mixed)
		if _, _, failed := anyFailed(m); failed {
			break
		}
	}
	bank, pa, failed := anyFailed(m)
	if !failed {
		t.Fatal("memory should eventually fail at endurance 200")
	}
	if bank < 0 || bank > 1 || pa >= m.Bank(bank).Bank().Lines() {
		t.Fatalf("implausible failure location %d/%d", bank, pa)
	}
	if totalDemandWrites(m) == 0 {
		t.Fatal("write accounting")
	}
	b, _, w := maxWear(m)
	if w == 0 || b != bank && w < 200 {
		t.Fatalf("max wear %d at bank %d", w, b)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := memory(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Write(1024, pcm.Zeros)
}
