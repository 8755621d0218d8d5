package feistel

import "fmt"

// Materialized permutation tables.
//
// Security RBSG re-draws its Feistel keys only once per remapping round
// (Section IV of the paper), so between redraws the permutation is a
// constant function evaluated millions of times — once per demand
// translation and several times per migration movement. For the domain
// sizes every scaled geometry uses (and the paper's 2^10-line
// sub-regions), the whole permutation fits in two small arrays, turning
// the k-stage cube evaluation (and any cycle-walking retries on top of
// it) into a single slice index in each direction.
//
// That trade holds only while the tables stay in cache. The exact tier
// simulates one bank at a time, whose tables do, so it materializes
// (core.Scheme by default, rbsg's static randomizer once at boot). A
// server holding many banks does not: memctld's 64 banks would carry
// ~268 MB of tables at 2^18 lines each and miss the cache on every
// lookup, while direct evaluation is ~8 ns of ALU work that touches no
// memory, so memserver builds its Security RBSG banks with
// core.Config.NoTableCache — the hardware's own trade, logic instead of
// a table.
//
// Above MaxTableBits the tables would dominate memory (and the O(2^B)
// build would dominate a remapping round), so callers fall back to
// direct evaluation — Materialize encodes that policy.

// MaxTableBits is the widest permutation Materialize will turn into
// lookup tables: 2^20 entries costs 8 MB for both directions, builds in
// a few milliseconds, and covers every scaled geometry in the repo. The
// paper-scale 2^22-line space stays on direct evaluation.
const MaxTableBits = 20

// MaxTableDomain is the largest domain NewTable accepts.
const MaxTableDomain uint64 = 1 << MaxTableBits

// Table is a Permutation materialized into forward and inverse lookup
// arrays. It is immutable through the Permutation interface; Fill
// rebuilds it in place when the underlying keys change (one build per
// remapping round, amortized over the whole round's accesses).
type Table struct {
	fwd, inv []uint32
}

// NewTable materializes p into lookup tables. The domain must be at
// most MaxTableDomain.
func NewTable(p Permutation) (*Table, error) {
	t := &Table{}
	if err := t.Fill(p); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNewTable is NewTable that panics on error; for call sites whose
// domain is already validated against MaxTableDomain.
func MustNewTable(p Permutation) *Table {
	t, err := NewTable(p)
	if err != nil {
		panic(err)
	}
	return t
}

// Fill rebuilds the tables from p, reusing the existing arrays when the
// domain allows. This is the per-round invalidation hook: after a key
// redraw the owner refills a table that no live mapping references.
func (t *Table) Fill(p Permutation) error {
	n := p.Domain()
	if n == 0 || n > MaxTableDomain {
		return fmt.Errorf("feistel: domain %d not materializable (max %d)", n, MaxTableDomain)
	}
	if uint64(cap(t.fwd)) < n {
		t.fwd = make([]uint32, n)
		t.inv = make([]uint32, n)
	}
	t.fwd = t.fwd[:n]
	t.inv = t.inv[:n]
	for x := uint64(0); x < n; x++ {
		y := p.Encrypt(x)
		t.fwd[x] = uint32(y)
		t.inv[y] = uint32(x)
	}
	return nil
}

// MustFill is Fill that panics on error; for per-round refills of a
// table whose domain was validated when it was first built.
func (t *Table) MustFill(p Permutation) {
	if err := t.Fill(p); err != nil {
		panic(err)
	}
}

// Encrypt permutes x by table lookup.
func (t *Table) Encrypt(x uint64) uint64 { return uint64(t.fwd[x]) }

// Decrypt inverts Encrypt by table lookup.
func (t *Table) Decrypt(x uint64) uint64 { return uint64(t.inv[x]) }

// Domain returns the permutation domain size.
func (t *Table) Domain() uint64 { return uint64(len(t.fwd)) }

// Materialize returns p as lookup tables when its domain is small
// enough and p unchanged otherwise — the one policy switch between
// "table per round" and "evaluate every access" (see MaxTableBits).
func Materialize(p Permutation) Permutation {
	if p.Domain() > MaxTableDomain {
		return p
	}
	return MustNewTable(p)
}
