package parallel

import (
	"errors"
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

func TestForEachErrIndexAddressedSlots(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4, 64} {
		errs := ForEachErr(10, workers, func(i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		if len(errs) != 10 {
			t.Fatalf("workers=%d: got %d slots, want 10", workers, len(errs))
		}
		for i, err := range errs {
			want := error(nil)
			switch i {
			case 3:
				want = errA
			case 7:
				want = errB
			}
			if err != want {
				t.Fatalf("workers=%d: slot %d = %v, want %v", workers, i, err, want)
			}
		}
		if got := First(errs); got != errA {
			t.Fatalf("workers=%d: First = %v, want lowest-index error", workers, got)
		}
	}
}

func TestForEachErrEmpty(t *testing.T) {
	if errs := ForEachErr(0, 4, func(int) error { return errors.New("x") }); errs != nil {
		t.Fatalf("got %v, want nil for empty range", errs)
	}
	if err := First(nil); err != nil {
		t.Fatalf("First(nil) = %v", err)
	}
}

func BenchmarkForEachOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(64, 0, func(int) {})
	}
}
