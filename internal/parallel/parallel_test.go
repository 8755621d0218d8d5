package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var hits [100]atomic.Int32
		ForEach(100, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Fatal("f called for empty range")
	}
}

func BenchmarkForEachOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(64, 0, func(int) {})
	}
}
