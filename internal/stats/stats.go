package stats

import (
	"math"
	"sort"
)

// NormalizedCumulative returns the normalized accumulated distribution of
// writes across the address space — the quantity plotted in Fig 16 of the
// paper. counts[i] is the number of writes absorbed by physical line i; the
// result y has len(points) entries where y[k] is the fraction of all writes
// absorbed by addresses <= points[k] (points are indices into counts).
// A perfectly uniform distribution yields y[k] ≈ points[k]/len(counts).
func NormalizedCumulative(counts []uint32, points []int) []float64 {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	y := make([]float64, len(points))
	if total == 0 {
		return y
	}
	sort.Ints(points)
	var acc float64
	prev := 0
	for k, p := range points {
		if p > len(counts) {
			p = len(counts)
		}
		for i := prev; i < p; i++ {
			acc += float64(counts[i])
		}
		prev = p
		y[k] = acc / total
	}
	return y
}

// UniformityError returns the maximum absolute deviation of the normalized
// cumulative write distribution from the ideal diagonal — 0 means perfectly
// even wear, 1 means all writes on one end. This is the scalar form of
// "the curve is approximate to linear" in the paper's Fig 16 discussion.
func UniformityError(counts []uint32) float64 {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	if total == 0 || len(counts) == 0 {
		return 0
	}
	var acc, worst float64
	n := float64(len(counts))
	for i, c := range counts {
		acc += float64(c)
		d := math.Abs(acc/total - float64(i+1)/n)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Gini returns the Gini coefficient of the wear distribution: 0 means
// every line absorbed the same wear, values toward 1 mean the wear is
// concentrated on few lines. Alongside UniformityError it is the
// tournament's per-cell wear-evenness metric: Gini weighs the whole
// distribution where UniformityError reports only the worst deviation.
// counts is not modified.
func Gini(counts []uint32) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := make([]uint32, n)
	copy(sorted, counts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total, weighted float64
	for i, c := range sorted {
		total += float64(c)
		weighted += float64(i+1) * float64(c)
	}
	if total == 0 {
		return 0
	}
	fn := float64(n)
	return 2*weighted/(fn*total) - (fn+1)/fn
}

// Histogram is a fixed-width bucket histogram over [lo, hi).
type Histogram struct {
	Lo, Hi  float64
	Buckets []uint64
	Under   uint64 // samples below Lo
	Over    uint64 // samples at or above Hi
	Count   uint64
}

// NewHistogram creates a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]uint64, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.Count++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
		if i >= len(h.Buckets) { // float edge case at upper bound
			i = len(h.Buckets) - 1
		}
		h.Buckets[i]++
	}
}
