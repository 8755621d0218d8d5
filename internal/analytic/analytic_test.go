package analytic

import (
	"strings"
	"testing"
)

func TestLog2(t *testing.T) {
	cases := map[uint64]uint{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1 << 22: 22, 100: 7}
	for n, want := range cases {
		if got := Log2(n); got != want {
			t.Errorf("Log2(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestPaperOverhead reproduces Section V-C-3's totals for the recommended
// 1 GB configuration: ≈2 KB of registers, 0.5 MB of isRemap SRAM.
func TestPaperOverhead(t *testing.T) {
	o := ComputeOverhead(OverheadParams{
		Lines: 1 << 22, Regions: 512,
		InnerInterval: 64, OuterInterval: 128,
		Stages: 7, LineBytes: 256,
	})
	kb := float64(o.RegisterBits) / 8 / 1024
	if kb < 1.5 || kb > 2.5 {
		t.Errorf("register overhead %.2f KB, paper says ≈2 KB", kb)
	}
	if mb := float64(o.SRAMBits) / 8 / 1024 / 1024; mb != 0.5 {
		t.Errorf("SRAM %.2f MB, paper says 0.5 MB", mb)
	}
	// (R+1) spare lines of 256 B.
	if o.SparePCMBytes != 513*256 {
		t.Errorf("spare PCM %d B", o.SparePCMBytes)
	}
	// (3/8)·S·B² gates.
	if o.Gates != 3*7*22*22/8 {
		t.Errorf("gates %d", o.Gates)
	}
}

// TestMinStagesPaperExample: ψo=128 with 22-bit keys needs 6 stages, and 6
// stages remain sufficient up to ψo = 132 (Section V-C-1).
func TestMinStagesPaperExample(t *testing.T) {
	if got := MinStages(128, 22); got != 6 {
		t.Fatalf("MinStages(128,22) = %d, want 6", got)
	}
	if got := MinStages(132, 22); got != 6 {
		t.Fatalf("MinStages(132,22) = %d, want 6", got)
	}
	if got := MinStages(133, 22); got != 7 {
		t.Fatalf("MinStages(133,22) = %d, want 7", got)
	}
	if MinStages(1, 22) != 1 || MinStages(10, 0) != 1 {
		t.Fatal("edge cases")
	}
}

func TestDetectionOutrunsKeys(t *testing.T) {
	// 3-stage, 22-bit, ψo=128: 66 < 128 — insecure, RTA wins.
	if !DetectionOutrunsKeys(3, 22, 128) {
		t.Error("3 stages should leak at ψo=128")
	}
	// 6-stage: 132 ≥ 128 — secure.
	if DetectionOutrunsKeys(6, 22, 128) {
		t.Error("6 stages should hold at ψo=128")
	}
	if DetectionOutrunsKeys(7, 22, 128) {
		t.Error("7 stages should hold")
	}
}

func TestDurations(t *testing.T) {
	if SecondsToDays(86400) != 1 || SecondsToYears(86400*365) != 1 {
		t.Fatal("conversions")
	}
	for s, frag := range map[float64]string{
		0.001:        "ms",
		30:           "s",
		600:          "min",
		7200:         "h",
		86400 * 2:    "h",
		86400 * 30:   "days",
		86400 * 4855: "years",
	} {
		if got := HumanDuration(s); !strings.Contains(got, frag) {
			t.Errorf("HumanDuration(%v) = %q, want unit %q", s, got, frag)
		}
	}
}
