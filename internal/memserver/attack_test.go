package memserver

import (
	"net/http/httptest"
	"runtime"
	"testing"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/stats"
)

// The tests in this file guard the property the whole paper rests on:
// the SET/RESET timing side channel must survive the service layer.
// If serialization, batching, or queueing ever flattened or perturbed
// per-request simulated latency, the repo would silently stop modeling
// the attack surface it exists to study.

// TestWireTimingSignalSurvives checks the two ends of the side channel
// byte-for-byte over a real binary-wire round trip: an ALL-0 write
// costs the RESET pulse, an ALL-1 write the SET pulse.
func TestWireTimingSignalSurvives(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeNone // no remapping noise: pure device timing
	_, c, _ := startServer(t, cfg)

	if ns := c.Write(8, pcm.Zeros); ns != pcm.DefaultTiming.ResetNs {
		t.Fatalf("ALL-0 write: %d ns over the wire, want RESET %d", ns, pcm.DefaultTiming.ResetNs)
	}
	if ns := c.Write(8, pcm.Ones); ns != pcm.DefaultTiming.SetNs {
		t.Fatalf("ALL-1 write: %d ns over the wire, want SET %d", ns, pcm.DefaultTiming.SetNs)
	}
	if _, ns := c.Read(8); ns != pcm.DefaultTiming.ReadNs {
		t.Fatalf("read: %d ns over the wire, want %d", ns, pcm.DefaultTiming.ReadNs)
	}
}

// wireOracle polls /metrics on the control plane for failed lines every
// few writes — the attacker-side stop condition, built from public
// telemetry only.
func wireOracle(c *Client, every int) func() bool {
	calls := 0
	failed := false
	return func() bool {
		if failed {
			return true
		}
		calls++
		if calls%every != 0 {
			return false
		}
		m, err := c.Metrics()
		if err != nil {
			return false
		}
		failed = m["memctld_failed_lines"] > 0
		return failed
	}
}

// TestBinaryTimingSignalSurvives: batching must not flatten the
// channel. One frame mixing ALL-0 writes, ALL-1 writes and reads across
// two banks reports each op's own device latency at its own index, and
// the frame's NsSum and NsMax add exactly those up.
func TestBinaryTimingSignalSurvives(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeNone // no remapping noise: pure device timing
	_, c, _ := startServer(t, cfg)

	tm := pcm.DefaultTiming
	ops := []BatchOp{ // LA 8 lives on bank 0, LA 9 on bank 1
		{Line: 8, Data: uint8(pcm.Zeros)}, {Line: 9, Data: uint8(pcm.Ones)},
		{Line: 8, Read: true}, {Line: 8, Data: uint8(pcm.Ones)},
		{Line: 9, Data: uint8(pcm.Zeros)}, {Line: 9, Read: true},
	}
	want := []uint64{tm.ResetNs, tm.SetNs, tm.ReadNs, tm.SetNs, tm.ResetNs, tm.ReadNs}
	resp, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	var sum, slowest uint64
	for i, ns := range want {
		if resp.Ns[i] != ns {
			t.Fatalf("op %d %+v: %d ns inside a batch frame, want %d", i, ops[i], resp.Ns[i], ns)
		}
		sum, slowest = sum+ns, max(slowest, ns)
	}
	if resp.Applied != len(ops) || resp.NsSum != sum || resp.NsMax != slowest {
		t.Fatalf("frame accounting %+v, want applied %d, NsSum %d, NsMax %d",
			resp, len(ops), sum, slowest)
	}
}

// rtaConfig is the single-bank RTA geometry: 256 lines in 8 regions,
// gap movement every 4 writes, endurance low enough for the wear-out
// phase to finish.
func rtaConfig() Config {
	return Config{
		Banks: 1, Lines: 256, Scheme: SchemeRBSG,
		Regions: 8, Interval: 4, Seed: 5,
		Endurance: 500, QueueDepth: 64, SnapshotEvery: 1,
	}
}

// checkRTA runs the paper's Remapping Timing Attack from
// internal/attack, unmodified, against target — bank 0 of s, in
// rtaConfig's per-bank geometry — with its oracle polling the control
// plane ctl. The attacker must recover the true physical-neighbor
// sequence and wear out a line, and every phase's write count is
// pinned: the server is deterministic given the op stream and the
// attacker given the latencies, so a service layer that flattened,
// perturbed or reordered the channel would move them.
func checkRTA(t *testing.T, s *Server, target attack.Target, ctl *Client) {
	t.Helper()
	a := &attack.RTARBSG{
		Target: target,
		Lines:  256, Regions: 8, Interval: 4,
		Li:     17,
		SeqLen: 6,
		Oracle: wireOracle(ctl, 64),
	}
	res, err := a.Run()
	if err != nil {
		t.Fatalf("attack over the wire: %v", err)
	}

	// Ground truth from scheme internals the attacker never saw. The
	// randomizer is static, so reading it while the executor still owns
	// the scheme is safe: nothing ever mutates it.
	scheme := s.Memory().Bank(0).Scheme().(*rbsg.Scheme)
	want := groundTruthSequence(scheme, 17, 6)
	got := a.Sequence()
	if len(got) < len(want) {
		t.Fatalf("recovered %d addresses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence[%d] = %d over the wire, ground truth %d (got %v want %v)",
				i, got[i], want[i], got, want)
		}
	}

	// The device must actually have failed, and telemetry must say so.
	m, err := ctl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["memctld_failed_lines"] == 0 {
		t.Fatal("wear-out phase did not register a failed line in /metrics")
	}
	if res.Writes != 3647 || a.AlignWrites != 316 || a.DetectWrites != 2840 || a.WearWrites != 491 {
		t.Fatalf("wire RTA cost %d writes (align %d, detect %d, wear %d), want 3647 (316, 2840, 491)",
			res.Writes, a.AlignWrites, a.DetectWrites, a.WearWrites)
	}
}

// TestWireRTARecoversSequence runs the RTA over the binary wire against
// a single-bank server, with its oracle on the HTTP control plane — the
// split memctld deploys.
func TestWireRTARecoversSequence(t *testing.T) {
	s, c, ctl := startServer(t, rtaConfig())
	checkRTA(t, s, c, ctl)
}

// bankTarget confines an attacker to one bank of a multi-bank server:
// the attacker's address x is the bank's local line x, which the
// server's interleave (LA mod Banks) places at LA x*banks+bank.
type bankTarget struct {
	c           *BinaryClient
	banks, bank uint64
}

func (b bankTarget) Write(x uint64, d pcm.Content) uint64 {
	return b.c.Write(x*b.banks+b.bank, d)
}

func (b bankTarget) Read(x uint64) (pcm.Content, uint64) {
	return b.c.Read(x*b.banks + b.bank)
}

// TestBinaryRTARecoversSequence: the side channel is per bank, even
// between banks that share an executor. The RTA runs against bank 0 of
// a server with one bank more than it has executors, while a second
// connection streams benign frames to the one other bank that bank 0's
// executor owns — so the neighbor shares the attacked bank's executor
// and its FIFO in wall time, as well as the listener and the frames'
// fan-out. Bank 0 is built exactly like rtaConfig's single bank (same
// seed, geometry and endurance), so the attacker must recover the same
// sequence at exactly the same cost: the neighbor's traffic must leave
// no trace in the attacker's latencies.
func TestBinaryRTARecoversSequence(t *testing.T) {
	cfg := rtaConfig()
	// W = min(GOMAXPROCS, Banks) executors: one bank more than GOMAXPROCS
	// puts two banks on one executor on any host.
	banks := runtime.GOMAXPROCS(0) + 1
	cfg.Banks, cfg.Lines = banks, uint64(banks)*cfg.Lines
	s := runServer(t, cfg)
	neighborBank := 1
	for s.owner(neighborBank) != s.owner(0) {
		neighborBank++
	}
	addr := startBinaryListener(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	attacker, neighbor := dialBinary(t, addr), dialBinary(t, addr)

	// 400 frames of 32 writes spread over the neighbor bank's 256 lines
	// stay far below the 500-write endurance, so the oracle's
	// failed-lines signal can only come from the attacked bank.
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		rng := stats.NewRNG(3)
		ops := make([]BatchOp, 32)
		for round := 0; round < 400; round++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			for i := range ops {
				ops[i] = BatchOp{Line: uint64(banks)*rng.Uint64n(256) + uint64(neighborBank), Data: 2}
			}
			if _, err := neighbor.Batch(ops); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	checkRTA(t, s, bankTarget{c: attacker, banks: uint64(banks), bank: 0}, NewClient(ts.URL))
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("neighbor-bank traffic: %v", err)
	}
}

// groundTruthSequence mirrors the helper in internal/attack's tests:
// the true logical addresses physically preceding Li, from the static
// randomizer the attacker never sees.
func groundTruthSequence(s *rbsg.Scheme, li uint64, k int) []uint64 {
	n := s.LinesPerRegion()
	ia := s.Intermediate(li)
	region, off := ia/n, ia%n
	out := make([]uint64, 0, k)
	for i := 1; i <= k; i++ {
		prev := (off + n - uint64(i)%n) % n
		out = append(out, s.Randomizer().Decrypt(region*n+prev))
	}
	return out
}

// TestWireDetectorAlarms drives the two traffic shapes the acceptance
// criteria name through batch frames: the detector must stay quiet
// under uniform traffic and alarm under the repeated-address shape.
func TestWireDetectorAlarms(t *testing.T) {
	// Uniform: every region gets ≈1/R of the traffic, no alarm.
	_, quiet, quietCtl := startServer(t, testConfig())
	rng := stats.NewRNG(11)
	ops := make([]BatchOp, 256)
	for round := 0; round < 40; round++ {
		for i := range ops {
			ops[i] = BatchOp{Line: rng.Uint64n(4096), Data: 2}
		}
		if _, err := quiet.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	m, err := quietCtl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["memctld_detector_alarms_total"] != 0 {
		t.Fatalf("uniform traffic raised %v alarms", m["memctld_detector_alarms_total"])
	}

	// Attack-shaped: hammer one line; its region sees ~100% share.
	_, noisy, noisyCtl := startServer(t, testConfig())
	for i := range ops {
		ops[i] = BatchOp{Line: 0, Data: 1}
	}
	for round := 0; round < 40; round++ {
		if _, err := noisy.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	m, err = noisyCtl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["memctld_detector_alarms_total"] == 0 {
		t.Fatal("attack-shaped traffic raised no detector alarm")
	}
	if m["memctld_detector_boosted_moves_total"] == 0 {
		t.Fatal("alarm did not boost the remapping rate")
	}
}
