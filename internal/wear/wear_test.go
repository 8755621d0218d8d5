package wear_test

import (
	"testing"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/wear"
)

func cfg() pcm.Config {
	return pcm.Config{Endurance: 1000, Timing: pcm.DefaultTiming}
}

func controller(t *testing.T) *wear.Controller {
	t.Helper()
	s, err := startgap.NewSingle(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	return wear.MustNewController(cfg(), s)
}

func TestControllerSizesBankFromScheme(t *testing.T) {
	c := controller(t)
	if c.Bank().Lines() != 17 {
		t.Fatalf("bank has %d lines, want scheme's 17", c.Bank().Lines())
	}
}

func TestWriteLatencyIncludesRemap(t *testing.T) {
	c := controller(t)
	// ψ=4: three cheap writes, the fourth triggers a movement of an ALL-0
	// line (read 125 + RESET 125).
	for i := 0; i < 3; i++ {
		if ns := c.Write(0, pcm.Zeros); ns != 125 {
			t.Fatalf("write %d latency %d, want 125", i, ns)
		}
	}
	if ns := c.Write(0, pcm.Zeros); ns != 125+250 {
		t.Fatalf("triggering write latency %d, want 375", ns)
	}
	if c.RemapEvents() != 1 || c.RemapNs() != 250 {
		t.Fatalf("remap accounting: %d events, %d ns", c.RemapEvents(), c.RemapNs())
	}
}

func TestTimingSideChannelDistinguishesContent(t *testing.T) {
	c := controller(t)
	// Make the line just before the gap ALL-1 so its movement is slow.
	victim := uint64(15) // slot 15 moves into the gap (slot 16) first
	c.Write(victim, pcm.Ones)
	var remapExtra uint64
	for i := 0; i < 4; i++ {
		ns := c.Write(victim, pcm.Ones)
		if extra := ns - 1000; extra > 0 {
			remapExtra = extra
		}
	}
	if remapExtra != 1125 {
		t.Fatalf("moving an ALL-1 line leaked %d ns, want 1125 — the RTA signal", remapExtra)
	}
}

func TestReadLatency(t *testing.T) {
	c := controller(t)
	c.Write(3, pcm.Ones)
	content, ns := c.Read(3)
	if content != pcm.Ones || ns != 125 {
		t.Fatalf("read %v/%d", content, ns)
	}
	c.TranslationNs = 10
	if _, ns := c.Read(3); ns != 135 {
		t.Fatalf("read with translation %d, want 135", ns)
	}
}

func TestWriteOverhead(t *testing.T) {
	c := controller(t)
	for i := 0; i < 400; i++ {
		c.Write(uint64(i)%16, pcm.Mixed)
	}
	// One movement (one device write) per 4 demand writes: 25%.
	if got := c.WriteOverhead(); got < 0.24 || got > 0.26 {
		t.Fatalf("write overhead %.3f, want ≈0.25", got)
	}
	if c.DemandWrites() != 400 {
		t.Fatalf("demand writes %d", c.DemandWrites())
	}
}

// TestPracticalOverheadBelowOnePercent checks the paper's 1% rule at the
// recommended interval.
func TestPracticalOverheadBelowOnePercent(t *testing.T) {
	s, err := startgap.NewSingle(256, 100)
	if err != nil {
		t.Fatal(err)
	}
	c := wear.MustNewController(cfg(), s)
	for i := 0; i < 100000; i++ {
		c.Write(uint64(i)%256, pcm.Mixed)
	}
	if got := c.WriteOverhead(); got > 0.011 {
		t.Fatalf("write overhead %.4f exceeds the paper's 1%% bound", got)
	}
}

func TestCheckBijection(t *testing.T) {
	c := controller(t)
	if err := schemetest.CheckBijection(c.Scheme()); err != nil {
		t.Fatal(err)
	}
	if err := schemetest.CheckBijection(badScheme{}); err == nil {
		t.Fatal("colliding scheme must fail the check")
	}
	if err := schemetest.CheckBijection(oobScheme{}); err == nil {
		t.Fatal("out-of-bounds scheme must fail the check")
	}
}

type badScheme struct{}

func (badScheme) Name() string                        { return "bad" }
func (badScheme) LogicalLines() uint64                { return 4 }
func (badScheme) PhysicalLines() uint64               { return 4 }
func (badScheme) Translate(la uint64) uint64          { return 0 }
func (badScheme) NoteWrite(uint64, wear.Mover) uint64 { return 0 }

type oobScheme struct{}

func (oobScheme) Name() string                        { return "oob" }
func (oobScheme) LogicalLines() uint64                { return 4 }
func (oobScheme) PhysicalLines() uint64               { return 4 }
func (oobScheme) Translate(la uint64) uint64          { return la + 10 }
func (oobScheme) NoteWrite(uint64, wear.Mover) uint64 { return 0 }

func TestPassthrough(t *testing.T) {
	p := wear.NewPassthrough(32)
	if p.Name() != "none" || p.LogicalLines() != 32 || p.PhysicalLines() != 32 {
		t.Fatal("metadata")
	}
	if p.Translate(7) != 7 || p.NoteWrite(7, nil) != 0 {
		t.Fatal("passthrough must be inert")
	}
	if err := schemetest.CheckBijection(p); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c := controller(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Write(16, pcm.Zeros)
}

func TestTranslationTimeAdvancesDeviceClock(t *testing.T) {
	c := controller(t)
	c.TranslationNs = 10
	before := c.Bank().ElapsedNs()
	ns := c.Write(0, pcm.Zeros)
	if ns != 135 {
		t.Fatalf("latency %d, want 135", ns)
	}
	if c.Bank().ElapsedNs() != before+135 {
		t.Fatalf("device clock advanced %d, want 135", c.Bank().ElapsedNs()-before)
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := controller(t)
	for i := 0; i < 40; i++ {
		c.Write(uint64(i)%16, pcm.Mixed)
	}
	c.Read(3)
	st := c.Stats()
	if st.DemandWrites != 40 || st.DemandReads != 1 {
		t.Fatalf("demand counts %+v", st)
	}
	if st.RemapEvents != 10 { // ψ=4
		t.Fatalf("remap events %d", st.RemapEvents)
	}
	if st.DeviceWrites != 50 { // 40 demand + 10 movement writes
		t.Fatalf("device writes %d", st.DeviceWrites)
	}
	if st.WriteOverhead < 0.24 || st.WriteOverhead > 0.26 {
		t.Fatalf("overhead %v", st.WriteOverhead)
	}
	if st.MaxWear == 0 || st.ElapsedNs == 0 || st.EnergyMicrojoules <= 0 {
		t.Fatalf("zeroed fields: %+v", st)
	}
	if st.FailedLines != 0 {
		t.Fatalf("no failure expected: %+v", st)
	}
}
