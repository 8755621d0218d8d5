package memserver

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
)

// testConfig is a small server: 4 banks × 1024 lines, snapshots after
// every op so metrics are exact in assertions.
func testConfig() Config {
	return Config{
		Banks: 4, Lines: 4096, Scheme: SchemeRBSGDetector,
		Regions: 8, Interval: 4, Seed: 42,
		QueueDepth: 32, SnapshotEvery: 1,
	}
}

// runServer builds and starts a server and registers its drain.
func runServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

// runServerFullBank runs a server (runServer) whose bank's admission
// count already stands at QueueDepth, as if that many runs had been
// admitted and never started: every run for that bank is refused, while
// the other banks serve normally.
func runServerFullBank(t *testing.T, cfg Config, bank int) *Server {
	t.Helper()
	s := runServer(t, cfg)
	s.banks[bank].queued.Store(int64(s.cfg.QueueDepth))
	return s
}

// startServer runs a server the way memctld deploys it — the binary
// data plane plus the HTTP control plane — and returns it with a
// connected binary client and a control-plane client. Cleanup runs
// LIFO, so it closes the control plane, then the binary listener, then
// drains the executors: memctld's drain order.
func startServer(t *testing.T, cfg Config) (*Server, *BinaryClient, *Client) {
	t.Helper()
	s := runServer(t, cfg)
	c := dialBinary(t, startBinaryListener(t, s))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, c, NewClient(ts.URL)
}

// startBinaryListener attaches a binary-protocol listener to s and
// registers its shutdown (before any drain cleanup the caller has
// already registered — t.Cleanup runs LIFO, and ShutdownBinary must
// run while the executors still do).
func startBinaryListener(t testing.TB, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeBinary(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.ShutdownBinary(ctx); err != nil {
			t.Errorf("binary shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve binary: %v", err)
		}
	})
	return ln.Addr().String()
}

func dialBinary(t testing.TB, addr string) *BinaryClient {
	t.Helper()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// settledMetrics scrapes c until the published snapshots count ops
// demand ops: an executor answers a request before it publishes the
// snapshot that counts it, so a scrape right after the last answer can
// miss that request's counters.
func settledMetrics(t *testing.T, c *Client, ops float64) map[string]float64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if m["memctld_demand_writes_total"]+m["memctld_demand_reads_total"] >= ops || time.Now().After(deadline) {
			return m
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, c, _ := startServer(t, testConfig())
	for _, la := range []uint64{0, 1, 2, 3, 4095, 1234} {
		want := pcm.Content(la % 3)
		if ns := c.Write(la, want); ns == 0 {
			t.Fatalf("write LA %d: zero latency", la)
		}
		got, ns := c.Read(la)
		if got != want {
			t.Fatalf("read LA %d = %v, want %v", la, got, want)
		}
		if ns < pcm.DefaultTiming.ReadNs {
			t.Fatalf("read LA %d: latency %d below device read time", la, ns)
		}
	}
}

// TestBinaryWriteReadRoundTrip is the round trip at frame level: a read
// after two writes to the same line in one frame sees the later write
// (a line's ops apply in frame order), and a second connection reads
// the same data back (state lives in the banks, not the connection).
func TestBinaryWriteReadRoundTrip(t *testing.T) {
	addr := startBinaryListener(t, runServer(t, testConfig()))
	writer, reader := dialBinary(t, addr), dialBinary(t, addr)
	lines := []uint64{0, 1, 2, 3, 4095, 1234}

	var ops []BatchOp
	for _, la := range lines {
		want := uint8(la % 3)
		ops = append(ops,
			BatchOp{Line: la, Data: (want + 1) % 3},
			BatchOp{Line: la, Data: want},
			BatchOp{Line: la, Read: true})
	}
	resp, err := writer.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, la := range lines {
		if got := resp.Data[3*i+2]; got != uint8(la%3) {
			t.Fatalf("in-frame read of LA %d = %d, want the later write %d", la, got, la%3)
		}
	}

	ops = ops[:0]
	for _, la := range lines {
		ops = append(ops, BatchOp{Line: la, Read: true})
	}
	if resp, err = reader.Batch(ops); err != nil {
		t.Fatal(err)
	}
	for i, la := range lines {
		if got := resp.Data[i]; got != uint8(la%3) {
			t.Fatalf("read of LA %d on a second connection = %d, want %d", la, got, la%3)
		}
		if resp.Ns[i] < pcm.DefaultTiming.ReadNs {
			t.Fatalf("read LA %d: latency %d below device read time", la, resp.Ns[i])
		}
	}
}

// TestBatchMatchesSequential drives two identically seeded servers,
// one op at a time vs one big coalesced batch. Per-bank op order is
// identical, and every bank is deterministic given its op subsequence,
// so per-op latencies and final telemetry must agree exactly — batch
// coalescing must not change what the memory does.
func TestBatchMatchesSequential(t *testing.T) {
	rng := stats.NewRNG(7)
	n := 500
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(4096), Data: uint8(rng.Uint64n(3))}
		if rng.Float64() < 0.2 {
			ops[i].Read = true
			ops[i].Data = 0
		}
	}

	_, seqClient, seqCtl := startServer(t, testConfig())
	seqNs := make([]uint64, n)
	for i, o := range ops {
		if o.Read {
			_, seqNs[i] = seqClient.Read(o.Line)
		} else {
			seqNs[i] = seqClient.Write(o.Line, pcm.Content(o.Data))
		}
	}

	_, batchClient, batchCtl := startServer(t, testConfig())
	resp, err := batchClient.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != n || resp.Rejected != 0 {
		t.Fatalf("batch applied %d rejected %d, want %d/0", resp.Applied, resp.Rejected, n)
	}
	for i := range ops {
		if resp.Ns[i] != seqNs[i] {
			t.Fatalf("op %d (%+v): batch ns %d != sequential ns %d",
				i, ops[i], resp.Ns[i], seqNs[i])
		}
	}

	seqM := settledMetrics(t, seqCtl, float64(n))
	batM := settledMetrics(t, batchCtl, float64(n))
	for _, name := range []string{
		"memctld_demand_writes_total", "memctld_demand_reads_total",
		"memctld_set_writes_total", "memctld_reset_writes_total",
		"memctld_remap_events_total", "memctld_sim_elapsed_ns_total", "memctld_wear_max",
	} {
		if seqM[name] != batM[name] {
			t.Errorf("%s: sequential %v != batch %v", name, seqM[name], batM[name])
		}
	}
}

// TestBackpressure429 keeps the name of the HTTP-era test. Demand ops
// no longer travel over HTTP, so a full bank queue answers a Nack frame
// rather than a 429 (TestBinaryNackBackpressure); what the control
// plane must show is that backpressure is a data-plane condition:
// /healthz still answers 200, and /metrics reports the queue at
// capacity and the one refused op.
func TestBackpressure429(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	s := runServerFullBank(t, cfg, 0)
	c := dialBinary(t, startBinaryListener(t, s))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctl := NewClient(ts.URL)

	// LA 0 routes to bank 0 → full queue → Nack.
	if resp, err := c.Batch([]BatchOp{{Line: 0}}); !errors.As(err, new(*BackpressureError)) {
		t.Fatalf("want BackpressureError, got resp=%+v err=%v", resp, err)
	}
	if err := ctl.Healthz(); err != nil {
		t.Fatalf("healthz under backpressure: %v", err)
	}
	m, err := ctl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := m["memctld_queue_depth"]; got != float64(cfg.QueueDepth) {
		t.Errorf("memctld_queue_depth = %v, want the full queue %d", got, cfg.QueueDepth)
	}
	if got := m["memctld_queue_rejected_total"]; got != 1 {
		t.Errorf("memctld_queue_rejected_total = %v, want 1", got)
	}
}

// TestMixedBankBatchPartialRejection: a batch spanning a full bank and
// an empty bank applies the empty bank's share and reports the rest
// rejected in a Nack.
func TestMixedBankBatchPartialRejection(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	c := dialBinary(t, startBinaryListener(t, runServerFullBank(t, cfg, 0)))

	// LA 0 → bank 0 (rejected), LA 1 → bank 1 (applied).
	_, err := c.Batch([]BatchOp{{Line: 0, Data: 1}, {Line: 1, Data: 1}})
	be, ok := err.(*BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError, got %v", err)
	}
	if be.Resp == nil || be.Resp.Applied != 1 || be.Resp.Rejected != 1 {
		t.Fatalf("partial accounting: %+v", be.Resp)
	}
	if be.Resp.Ns[1] == 0 {
		t.Fatal("applied op lost its latency")
	}
	if be.Resp.Ns[0] != 0 {
		t.Fatal("rejected op reported a latency")
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, bc, c := startServer(t, testConfig())

	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
	bc.Write(5, pcm.Ones)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(); err == nil {
		t.Fatal("healthz must fail while drained")
	}
	// New traffic is refused, not queued.
	if _, err := bc.Batch([]BatchOp{{Line: 0}}); err == nil {
		t.Fatal("batch must fail after drain")
	}
	// Metrics stay up and reflect the final exact state.
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["memctld_demand_writes_total"] != 1 || m["memctld_set_writes_total"] != 1 {
		t.Fatalf("post-drain metrics wrong: writes %v set %v",
			m["memctld_demand_writes_total"], m["memctld_set_writes_total"])
	}
	if m["memctld_draining"] == 0 {
		t.Fatal("draining gauge not set")
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsCounters(t *testing.T) {
	_, c, ctl := startServer(t, testConfig())
	for i := uint64(0); i < 40; i++ {
		c.Write(i, pcm.Zeros)
	}
	for i := uint64(0); i < 24; i++ {
		c.Write(i, pcm.Ones)
	}
	for i := uint64(0); i < 10; i++ {
		c.Read(i)
	}
	m := settledMetrics(t, ctl, 74)
	checks := map[string]float64{
		"memctld_demand_writes_total": 64,
		"memctld_demand_reads_total":  10,
		"memctld_reset_writes_total":  40,
		"memctld_set_writes_total":    24,
		"memctld_banks":               4,
		"memctld_lines":               4096,
	}
	for name, want := range checks {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if m["memctld_device_writes_total"] < 64 {
		t.Errorf("device writes %v below demand writes", m["memctld_device_writes_total"])
	}
	if m["memctld_wear_max"] == 0 {
		t.Error("wear max still zero after 64 writes")
	}
}

// TestBadRequests: HTTP is the control plane only. Demand ops travel on
// the binary wire, so every former JSON data path answers 404.
func TestBadRequests(t *testing.T) {
	_, _, c := startServer(t, testConfig())
	for _, path := range []string{"/v1/batch", "/v1/write", "/v1/read"} {
		resp, err := http.Post(c.BaseURL+path, "application/json", strings.NewReader(`{"ops": [{"l": 1}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Banks: 3, Lines: 100}); err == nil {
		t.Error("non-dividing lines must fail")
	}
	if _, err := New(Config{Banks: 2, Lines: 2 * 1000}); err == nil {
		t.Error("non-power-of-two per-bank lines must fail for randomized schemes")
	}
	if _, err := New(Config{Banks: 2, Lines: 2000, Scheme: SchemeNone}); err != nil {
		t.Errorf("passthrough scheme needs no power of two: %v", err)
	}
	if _, err := New(Config{Scheme: "bogus"}); err == nil {
		t.Error("unknown scheme must fail")
	}
}
