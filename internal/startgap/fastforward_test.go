package startgap

import (
	"testing"

	"securityrbsg/internal/schemetest"
)

func mustSingle(t *testing.T, n, interval uint64) *Single {
	t.Helper()
	s, err := NewSingle(n, interval)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFastForwardDifferential drives two identical Singles through the
// same pinned write stream — one write by write, one through the
// Epoch/Advance fast path — and asserts the scheme state is
// bit-identical afterwards. This is the exactness contract of
// wear.FastForwarder, checked at the scheme layer (internal/exactsim
// checks it again with a bank underneath). Epochs alternate between one
// Advance of the whole epoch and a movement-free prefix followed by the
// firing write, so both shapes of call are pinned.
func TestFastForwardDifferential(t *testing.T) {
	const (
		n     = 32
		psi   = 7
		la    = 5
		total = 3 * (n + 1) * psi / 2 // ~1.5 rotation rounds
	)
	naive := mustSingle(t, n, psi)
	fast := mustSingle(t, n, psi)
	mn := schemetest.NewTokenMover(naive)
	mf := schemetest.NewTokenMover(fast)

	for i := 0; i < total; i++ {
		naive.NoteWrite(la, mn)
	}

	issued := uint64(0)
	for epoch := 0; issued < total; epoch++ {
		pa, k := fast.Epoch(la)
		if k == 0 {
			t.Fatal("Epoch returned k = 0 (contract says ≥ 1)")
		}
		if pa != fast.Translate(la) {
			t.Fatalf("Epoch's line %d, Translate %d", pa, fast.Translate(la))
		}
		if rem := uint64(total) - issued; k > rem {
			k = rem
		}
		if epoch%2 == 1 && k > 1 {
			// The movement-free prefix: translation must be frozen across it.
			moves := fast.Movements()
			if fast.Advance(la, k-1, mf); fast.Movements() != moves {
				t.Fatal("a movement-free prefix moved the gap")
			}
			if after := fast.Translate(la); after != pa {
				t.Fatalf("a movement-free prefix moved the mapping: %d -> %d", pa, after)
			}
			fast.Advance(la, 1, mf)
		} else {
			fast.Advance(la, k, mf)
		}
		issued += k
	}

	if naive.Start() != fast.Start() || naive.Gap() != fast.Gap() {
		t.Fatalf("registers diverged: naive start=%d gap=%d, fast start=%d gap=%d",
			naive.Start(), naive.Gap(), fast.Start(), fast.Gap())
	}
	if naive.Movements() != fast.Movements() || naive.Rounds() != fast.Rounds() {
		t.Fatalf("movement books diverged: naive %d/%d, fast %d/%d",
			naive.Movements(), naive.Rounds(), fast.Movements(), fast.Rounds())
	}
	for a := uint64(0); a < n; a++ {
		if naive.Translate(a) != fast.Translate(a) {
			t.Fatalf("Translate(%d) diverged: %d vs %d", a, naive.Translate(a), fast.Translate(a))
		}
	}
	if err := schemetest.Verify(fast, mf); err != nil {
		t.Fatal(err)
	}
}

// TestFastForwardBound pins the closed form itself: after w writes into
// an interval of ψ, the epoch has exactly ψ−w writes left, and advancing
// right up to the boundary is legal (and fires the movement on its last
// write) while running past it panics.
func TestFastForwardBound(t *testing.T) {
	const psi = 10
	s := mustSingle(t, 8, psi)
	m := schemetest.NewTokenMover(s)
	for w := uint64(0); w < psi-1; w++ {
		if _, got := s.Epoch(3); got != psi-w {
			t.Fatalf("after %d writes: Epoch's k = %d, want %d", w, got, psi-w)
		}
		s.NoteWrite(3, m)
	}

	s2 := mustSingle(t, 8, psi)
	m2 := schemetest.NewTokenMover(s2)
	s2.Advance(0, psi-1, m2) // legal: lands one short of the boundary
	if _, got := s2.Epoch(0); got != 1 || s2.Movements() != 0 {
		t.Fatalf("after the prefix: Epoch's k = %d (want 1), %d movements (want 0)", got, s2.Movements())
	}
	if s2.Advance(0, 1, m2); s2.Movements() != 1 {
		t.Fatalf("the epoch's last write did not move the gap (%d movements)", s2.Movements())
	}
	s2.Advance(0, psi-1, m2)
	defer func() {
		if recover() == nil {
			t.Fatal("Advance past a movement boundary must panic")
		}
	}()
	s2.Advance(0, 2, m2)
}
