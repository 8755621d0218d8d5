package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical values", same)
	}
}

func TestRNGUint64nBounds(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGUint64nUniform(t *testing.T) {
	r := NewRNG(7)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ≈%.0f", v, c, want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	var sum float64
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f, want ≈0.5", mean)
	}
}

func TestRNGBits(t *testing.T) {
	r := NewRNG(9)
	for b := uint(0); b <= 64; b++ {
		v := r.Bits(b)
		if b < 64 && v>>b != 0 {
			t.Errorf("Bits(%d) produced %d bits of value %x", b, b, v)
		}
	}
}

func TestNormalizedCumulative(t *testing.T) {
	counts := []uint32{1, 1, 1, 1}
	y := NormalizedCumulative(counts, []int{1, 2, 4})
	want := []float64{0.25, 0.5, 1.0}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	skew := NormalizedCumulative([]uint32{100, 0, 0, 0}, []int{1, 4})
	if skew[0] != 1 || skew[1] != 1 {
		t.Fatalf("skewed cumulative: %v", skew)
	}
}

func TestUniformityError(t *testing.T) {
	if e := UniformityError([]uint32{5, 5, 5, 5}); e > 1e-9 {
		t.Fatalf("uniform input has error %v", e)
	}
	if e := UniformityError([]uint32{100, 0, 0, 0}); e < 0.7 {
		t.Fatalf("fully skewed input has error %v, want ≈0.75", e)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(11)
	if h.Under != 1 || h.Over != 1 || h.Count != 12 {
		t.Fatalf("bad counts: %+v", h)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestPoissonTail(t *testing.T) {
	// P(X >= 1) = 1 - e^-λ.
	for _, lam := range []float64{0.1, 1, 5} {
		want := 1 - math.Exp(-lam)
		if got := PoissonTail(lam, 1); math.Abs(got-want) > 1e-9 {
			t.Errorf("PoissonTail(%v,1) = %v, want %v", lam, got, want)
		}
	}
	// P(X >= 2) = 1 - e^-λ(1+λ).
	lam := 2.0
	want := 1 - math.Exp(-lam)*(1+lam)
	if got := PoissonTail(lam, 2); math.Abs(got-want) > 1e-9 {
		t.Errorf("PoissonTail(2,2) = %v, want %v", got, want)
	}
	if PoissonTail(0, 3) != 0 {
		t.Error("zero rate must have zero tail")
	}
	if PoissonTail(5, 0) != 1 {
		t.Error("m=0 tail must be 1")
	}
	// Deep tail must be positive and tiny, not NaN.
	deep := PoissonTail(10, 100)
	if !(deep > 0 && deep < 1e-30) {
		t.Errorf("deep tail = %v", deep)
	}
}

func TestLogFactorialMatchesLgamma(t *testing.T) {
	for _, m := range []int{0, 1, 5, 31, 32, 100, 1000} {
		want, _ := math.Lgamma(float64(m) + 1)
		if got := logFactorial(m); math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("logFactorial(%d) = %v, want %v", m, got, want)
		}
	}
}

// TestVisitsToMaxLoadMonteCarlo cross-validates the extreme-value solver
// against direct balls-into-bins simulation.
func TestVisitsToMaxLoadMonteCarlo(t *testing.T) {
	const bins, m, trials = 4096, 50, 30
	rng := NewRNG(11)
	var total float64
	counts := make([]uint16, bins)
	for trial := 0; trial < trials; trial++ {
		for i := range counts {
			counts[i] = 0
		}
		v := 0
		for {
			v++
			b := rng.Uint64n(bins)
			counts[b]++
			if counts[b] >= m {
				break
			}
		}
		total += float64(v)
	}
	mc := total / trials
	model := VisitsToMaxLoad(bins, m)
	if ratio := model / mc; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("solver %v vs Monte-Carlo %v (ratio %.3f)", model, mc, ratio)
	}
}

func TestVisitsToMaxLoadEdges(t *testing.T) {
	if v := VisitsToMaxLoad(100, 1); v != 1 {
		t.Fatalf("m=1 should take 1 visit, got %v", v)
	}
	if v := VisitsToMaxLoad(1, 10); v > 11 || v < 9 {
		t.Fatalf("single bin should take ≈m visits, got %v", v)
	}
	// More bins → more visits for the same threshold.
	if VisitsToMaxLoad(1000, 20) <= VisitsToMaxLoad(100, 20) {
		t.Fatal("visits should grow with bin count")
	}
	// Efficiency (visits/(n·m)) grows with m.
	e1 := VisitsToMaxLoad(1000, 10) / (1000 * 10)
	e2 := VisitsToMaxLoad(1000, 1000) / (1000 * 1000)
	if e2 <= e1 {
		t.Fatalf("efficiency should rise with m: %v vs %v", e1, e2)
	}
}

// maxLoadAfterVisits returns the expected maximum bin load after V
// uniform random visits over n bins — the smallest m such that the
// expected number of bins with load >= m drops below ln 2. It is the
// forward scan VisitsToMaxLoad must invert.
func maxLoadAfterVisits(n int, visits float64) int {
	if n <= 0 || visits <= 0 {
		return 0
	}
	lambda := visits / float64(n)
	target := math.Ln2 / float64(n)
	m := int(lambda) + 1
	for PoissonTail(lambda, m) >= target {
		m++
		if m > int(visits)+1 {
			break
		}
	}
	return m - 1
}

func TestMaxLoadAfterVisitsInvertsSolver(t *testing.T) {
	const bins = 2048
	for _, m := range []int{5, 20, 80} {
		v := VisitsToMaxLoad(bins, m)
		got := maxLoadAfterVisits(bins, v)
		if got < m-1 || got > m+1 {
			t.Errorf("maxLoadAfterVisits(%d, %v) = %d, want ≈%d", bins, v, got, m)
		}
	}
	if maxLoadAfterVisits(10, 0) != 0 {
		t.Error("zero visits → zero load")
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkVisitsToMaxLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		VisitsToMaxLoad(1<<22, 191)
	}
}
