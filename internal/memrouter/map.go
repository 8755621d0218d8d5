// Package memrouter is the distributed front of memctld: a stateless
// router that owns no banks and no scheme state, only a bank-group map
// and connection pools, and fans binary-protocol batches out across N
// memctld shard processes.
//
// The paper's controller manages each bank separately; memserver turned
// that into per-bank state with one writer each inside one process. The
// router is the next
// scaling step out: bank *groups* — contiguous runs of the logical line
// space — are assigned to shard processes, each shard running an
// unmodified memctld over its own lines. The map is blocked, not
// interleaved: group g covers logical lines [g·perGroup, (g+1)·perGroup),
// so a region-local access pattern (and in particular an attacker
// hammering one region, which is what the RTA does) lands on one shard
// with contiguous local lines — the shard's detector and scheme see
// exactly the stream they would see standalone, which is what makes the
// router-vs-direct attack regression an equality test rather than an
// approximation.
//
// Because the router holds no wear-leveling state, any number of router
// instances can front the same shard set; scaling the serving tier and
// scaling the simulation tier are independent.
package memrouter

import "fmt"

// Map is the bank-group → shard assignment: the one piece of routing
// state, immutable after construction.
type Map struct {
	lines    uint64
	perGroup uint64
	shards   int
	groupOf  []int    // group → shard
	rank     []uint64 // group → position among its shard's groups (ascending)
	local    []uint64 // shard → local line count (perGroup × owned groups)
}

// NewMap builds the map. lines must divide evenly into groups; groupMap
// (group → shard index) is explicit operator intent, or nil for the
// deterministic rendezvous-hash fallback. Every shard must own at least
// one group — a shard with no lines is a wiring mistake, not a
// degenerate case to serve around.
func NewMap(lines uint64, groups, shards int, groupMap []int) (*Map, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("memrouter: map needs at least one shard")
	}
	if groups <= 0 {
		groups = shards
	}
	if groups < shards {
		return nil, fmt.Errorf("memrouter: %d groups cannot cover %d shards", groups, shards)
	}
	if lines == 0 || lines%uint64(groups) != 0 {
		return nil, fmt.Errorf("memrouter: %d lines do not divide into %d groups", lines, groups)
	}
	if groupMap == nil {
		groupMap = rendezvousMap(groups, shards)
	}
	if len(groupMap) != groups {
		return nil, fmt.Errorf("memrouter: group map has %d entries for %d groups", len(groupMap), groups)
	}
	m := &Map{
		lines:    lines,
		perGroup: lines / uint64(groups),
		shards:   shards,
		groupOf:  append([]int(nil), groupMap...),
		rank:     make([]uint64, groups),
		local:    make([]uint64, shards),
	}
	counts := make([]uint64, shards)
	for g, s := range m.groupOf {
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("memrouter: group %d maps to shard %d, outside [0,%d)", g, s, shards)
		}
		m.rank[g] = counts[s] // groups scan ascending, so rank is the ascending position
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			return nil, fmt.Errorf("memrouter: shard %d owns no groups", s)
		}
		m.local[s] = n * m.perGroup
	}
	return m, nil
}

// rendezvousMap assigns groups to shards by highest-random-weight
// hashing: deterministic, dependency-free, and stable under shard-list
// reordering only if the operator keeps indices stable — which is why
// an explicit groupMap is the production path and this is the fallback
// for quick topologies.
func rendezvousMap(groups, shards int) []int {
	gm := make([]int, groups)
	for g := range gm {
		best, bestW := 0, uint64(0)
		for s := 0; s < shards; s++ {
			w := mix(uint64(g)<<32 | uint64(s))
			if w > bestW {
				best, bestW = s, w
			}
		}
		gm[g] = best
	}
	// Rendezvous can starve a shard on tiny group counts; rotate
	// leftovers onto empty shards so the every-shard-owns-lines
	// invariant holds for any groups ≥ shards.
	owned := make([]int, shards)
	for _, s := range gm {
		owned[s]++
	}
	for s := 0; s < shards; s++ {
		for owned[s] == 0 {
			for g, o := range gm {
				if owned[o] > 1 {
					owned[o]--
					gm[g] = s
					owned[s]++
					break
				}
			}
		}
	}
	return gm
}

// mix is splitmix64's finalizer: a cheap, well-distributed integer hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Lines is the total logical line count the map covers.
func (m *Map) Lines() uint64 { return m.lines }

// Shards is the shard count.
func (m *Map) Shards() int { return m.shards }

// Groups is the bank-group count.
func (m *Map) Groups() int { return len(m.groupOf) }

// LocalLines is the line count shard s must be configured with — the
// health check cross-checks it against the shard's own memctld_lines.
func (m *Map) LocalLines(s int) uint64 { return m.local[s] }

// GroupShard is the shard owning group g (topology introspection).
func (m *Map) GroupShard(g int) int { return m.groupOf[g] }

// Locate maps a logical line to its shard and the shard-local line.
// Blocked layout: the local line preserves the offset within the group,
// and a shard's groups concatenate in ascending group order.
//
//rbsglint:hotpath
func (m *Map) Locate(line uint64) (shard int, local uint64) {
	g := line / m.perGroup
	s := m.groupOf[g]
	return s, m.rank[g]*m.perGroup + line%m.perGroup
}
