package main

import (
	"math/bits"
	"runtime"

	"securityrbsg/internal/core"
	"securityrbsg/internal/feistel"
	"securityrbsg/internal/memserver"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
)

// ladderOps is how many ops of the workload's stream each rung replays.
const ladderOps = 1 << 20

// sink keeps the compiler from discarding the measured calls.
var sink uint64

// ladder measures the in-process rungs under the daemon at the
// workload's own per-bank geometry, replaying its op stream serially
// through public calls, and adds them to out. tput is the workload's
// measured throughput (0 when the serving path is not involved), which
// turns the controller rungs into a CPU share.
func ladder(w *workload, seed uint64, tput float64, out map[string]float64) error {
	perBank := w.lines / uint64(w.banks)
	width := uint(bits.Len64(perBank - 1))
	ops, err := replayOps(w, seed)
	if err != nil {
		return err
	}
	local := make([]uint64, len(ops))
	for i, o := range ops {
		local[i] = o.line / uint64(w.banks)
	}

	// Feistel table: the per-round materialized DFN, and its rebuild.
	netBits := width + width%2
	var perm feistel.Permutation = feistel.MustRandom(netBits, 7, stats.NewRNG(seed))
	if netBits != width {
		perm = feistel.MustNewWalker(perm, perBank)
	}
	tab, err := feistel.NewTable(perm)
	if err != nil {
		return err
	}
	t0 := now()
	for _, x := range local {
		sink += tab.Encrypt(x)
	}
	out["feistel.map_ns"] = float64(now().Sub(t0)) / float64(len(local))
	fills := make([]float64, max(5, (1<<22)>>width))
	for i := range fills {
		t0 := now()
		if err := tab.Fill(perm); err != nil {
			return err
		}
		fills[i] = float64(now().Sub(t0)) / 1e3
	}
	out["feistel.fill_us"] = median(fills)

	// Security RBSG translation with the daemon's scheme configuration.
	sch, err := core.New(core.Config{Lines: perBank, Regions: 32, InnerInterval: 100, OuterInterval: 100, Stages: 7, Seed: seed})
	if err != nil {
		return err
	}
	t0 = now()
	for _, x := range local {
		sink += sch.Translate(x)
	}
	out["core.translate_ns"] = float64(now().Sub(t0)) / float64(len(local))

	// The whole controller path without actors or transport.
	srv, err := memserver.New(memserver.Config{Banks: w.banks, Lines: w.lines, Scheme: memserver.SchemeAdaptive, Seed: seed})
	if err != nil {
		return err
	}
	mem := srv.Memory()
	var writes, reads int
	t0 = now()
	for _, o := range ops {
		if !o.read {
			sink += mem.Write(o.line, pcm.Content(o.data))
			writes++
		}
	}
	writeNs := float64(now().Sub(t0)) / float64(max(writes, 1))
	t0 = now()
	for _, o := range ops {
		if o.read {
			_, ns := mem.Read(o.line)
			sink += ns
			reads++
		}
	}
	readNs := float64(now().Sub(t0)) / float64(max(reads, 1))
	out["membank.write_ns"] = writeNs
	out["membank.read_ns"] = readNs
	perOp := (writeNs*float64(writes) + readNs*float64(reads)) / float64(writes+reads)
	out["membank.cpu_share"] = perOp * tput / 1e9 / float64(runtime.NumCPU())
	return nil
}

// replayOps regenerates the workload's op stream from the seed: the
// connections' frames alternate, each answered before the next is made.
func replayOps(w *workload, seed uint64) ([]op, error) {
	streams := make([]*stream, conns)
	sizes := make([]int, conns)
	for c := range streams {
		hammer := w.attack && c == 1
		st, err := newStream(seed, c, conns, w.banks, w.lines, hammer)
		if err != nil {
			return nil, err
		}
		streams[c] = st
		sizes[c] = batchOps
		if w.attack && !hammer {
			sizes[c] = benignOps
		}
	}
	ops := make([]op, 0, ladderOps+batchOps)
	var f frame
	for c := 0; len(ops) < ladderOps; c = (c + 1) % conns {
		st := streams[c]
		st.fill(&f, sizes[c])
		st.acked = f.seq
		ops = append(ops, f.ops...)
	}
	return ops, nil
}
