package pcm

import (
	"math"
	"testing"
)

func TestVariedBankZeroSigmaIsUniform(t *testing.T) {
	b, err := NewVariedBank(Config{Lines: 16, Endurance: 100}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.LineEndurance(3) != 100 {
		t.Fatal("zero sigma should keep the nominal endurance")
	}
	if _, e := b.WeakestLine(); e != 100 {
		t.Fatal("weakest line under zero sigma")
	}
}

func TestVariedBankDistribution(t *testing.T) {
	const lines, nominal, sigma = 4096, 100000, 0.15
	b, err := NewVariedBank(Config{Lines: lines, Endurance: nominal}, sigma, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sum, min, max float64
	min = math.Inf(1)
	for pa := uint64(0); pa < lines; pa++ {
		e := float64(b.LineEndurance(pa))
		sum += e
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	mean := sum / lines
	if math.Abs(mean-nominal) > 0.02*nominal {
		t.Fatalf("mean endurance %.0f, want ≈%d", mean, nominal)
	}
	if min >= nominal || max <= nominal {
		t.Fatalf("no spread: min %.0f max %.0f", min, max)
	}
	// Clamping bounds.
	if min < nominal/10 || max > 2*nominal-nominal/10 {
		t.Fatalf("clamp violated: min %.0f max %.0f", min, max)
	}
	wpa, we := b.WeakestLine()
	if uint64(we) != uint64(b.LineEndurance(wpa)) || float64(we) != min {
		t.Fatalf("weakest line inconsistent: %d/%d vs min %.0f", wpa, we, min)
	}
}

func TestVariedBankFailsAtOwnBudget(t *testing.T) {
	b, err := NewVariedBank(Config{Lines: 64, Endurance: 200}, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pa, budget := b.WeakestLine()
	for i := uint64(0); i < budget; i++ {
		b.Write(pa, Mixed)
	}
	if b.Failed() {
		t.Fatal("failed before the line's own budget")
	}
	b.Write(pa, Mixed)
	if !b.Failed() {
		t.Fatal("line must fail past its individual budget")
	}
	fpa, _, _ := b.FirstFailure()
	if fpa != pa {
		t.Fatalf("failure at %d, hammered %d", fpa, pa)
	}
}

// TestVariationShortensUniformLifetime quantifies the weakest-line
// effect: under perfectly uniform wear the device dies when the weakest
// line's budget is reached, i.e. roughly (1 − zσ)·E·N total writes.
func TestVariationShortensUniformLifetime(t *testing.T) {
	const lines, nominal = 1024, 500
	uniform := MustNewBank(Config{Lines: lines, Endurance: nominal})
	varied, err := NewVariedBank(Config{Lines: lines, Endurance: nominal}, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	writesToFail := func(b *Bank) uint64 {
		var n uint64
		for !b.Failed() {
			b.Write(n%lines, Mixed)
			n++
		}
		return n
	}
	u, v := writesToFail(uniform), writesToFail(varied)
	if v >= u {
		t.Fatalf("variation should shorten uniform-wear lifetime: %d vs %d", v, u)
	}
	// At σ=0.2 and 1024 lines the extreme-value factor z ≈ 3.2, so the
	// weakest line sits around (1−0.64)·E; allow a generous band.
	ratio := float64(v) / float64(u)
	if ratio < 0.2 || ratio > 0.85 {
		t.Fatalf("lifetime ratio %.2f outside the plausible weakest-line band", ratio)
	}
	t.Logf("uniform-wear lifetime with σ=0.2 variation: %.0f%% of uniform-endurance", 100*ratio)
}

// TestWritesToFailure: the count names exactly the write that fails the
// line, under each line's own budget, and reads 0 once it has failed.
func TestWritesToFailure(t *testing.T) {
	varied, err := NewVariedBank(Config{Lines: 64, Endurance: 1000}, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Bank{varied, MustNewBank(Config{Lines: 64, Endurance: 1000})} {
		for i, pa := range []uint64{0, 17, 63} {
			b.WriteN(pa, Ones, 3)
			j := b.WritesToFailure(pa)
			if j != b.LineEndurance(pa)+1-3 {
				t.Fatalf("line %d: WritesToFailure = %d with budget %d after 3 writes", pa, j, b.LineEndurance(pa))
			}
			b.WriteN(pa, Ones, j-1)
			if b.FailedLines() != uint64(i) || b.WritesToFailure(pa) != 1 {
				t.Fatalf("line %d: failed early or miscounted (%d left)", pa, b.WritesToFailure(pa))
			}
			b.Write(pa, Ones)
			if b.FailedLines() != uint64(i+1) || b.WritesToFailure(pa) != 0 {
				t.Fatalf("line %d: the counted write did not fail it (%d left)", pa, b.WritesToFailure(pa))
			}
		}
	}
}
