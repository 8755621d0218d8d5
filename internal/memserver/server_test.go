package memserver

import (
	"context"
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

// startServer builds, starts and registers cleanup for a server plus
// its HTTP front end.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close() // waits for in-flight handlers, then Drain is safe
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, NewClient(ts.URL)
}

// settledMetrics scrapes c until the published snapshots count ops
// demand ops: an actor answers a request before it publishes the
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
	_, c := startServer(t, testConfig())
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

	_, seqClient := startServer(t, testConfig())
	seqNs := make([]uint64, n)
	for i, o := range ops {
		if o.Read {
			_, seqNs[i] = seqClient.Read(o.Line)
		} else {
			seqNs[i] = seqClient.Write(o.Line, pcm.Content(o.Data))
		}
	}

	_, batchClient := startServer(t, testConfig())
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

	seqM := settledMetrics(t, seqClient, float64(n))
	batM := settledMetrics(t, batchClient, float64(n))
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

// TestBackpressure429 fills a bank queue (actors deliberately not
// started, so nothing dequeues) and checks the API answers 429 with
// Retry-After instead of blocking.
func TestBackpressure429(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stuff bank 0's queue to capacity by hand.
	for i := 0; i < cfg.QueueDepth; i++ {
		s.actors[0].ch <- bankReq{}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	// LA 0 routes to bank 0 → full queue → 429. Use Batch (which does
	// not retry) to observe the rejection.
	resp, err := c.Batch([]BatchOp{{Line: 0}})
	be, ok := err.(*BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError, got resp=%+v err=%v", resp, err)
	}
	if be.RetryAfter <= 0 {
		t.Fatalf("Retry-After not propagated: %+v", be)
	}
	if be.Resp == nil || be.Resp.Rejected != 1 || be.Resp.Applied != 0 {
		t.Fatalf("partial accounting wrong: %+v", be.Resp)
	}
	// LA 1 routes to bank 1, whose queue is empty — but its actor is
	// not running either, so only check the rejected counter stayed put.
	if got := s.actors[0].rejected.Load(); got != 1 {
		t.Fatalf("bank 0 rejected counter = %d, want 1", got)
	}
}

// TestMixedBankBatchPartialRejection: a batch spanning a full bank and
// an empty bank applies the empty bank's share and reports the rest
// rejected with 429.
func TestMixedBankBatchPartialRejection(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bank 0 full; start only bank 1's actor so its share completes.
	s.actors[0].ch <- bankReq{}
	go s.actors[1].run()
	defer close(s.actors[1].ch)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	// LA 0 → bank 0 (rejected), LA 1 → bank 1 (applied).
	_, err = c.Batch([]BatchOp{{Line: 0, Data: 1}, {Line: 1, Data: 1}})
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
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
	c.Write(5, pcm.Ones)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(); err == nil {
		t.Fatal("healthz must fail while drained")
	}
	// New traffic is refused, not queued.
	if _, err := c.Batch([]BatchOp{{Line: 0}}); err == nil {
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
	_, c := startServer(t, testConfig())
	for i := uint64(0); i < 40; i++ {
		c.Write(i, pcm.Zeros)
	}
	for i := uint64(0); i < 24; i++ {
		c.Write(i, pcm.Ones)
	}
	for i := uint64(0); i < 10; i++ {
		c.Read(i)
	}
	m := settledMetrics(t, c, 74)
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

func TestBadRequests(t *testing.T) {
	_, c := startServer(t, testConfig())
	cases := []struct {
		path, body string
	}{
		{"/v1/batch", `{"ops": [{"l": 999999, "d": 0}]}`}, // out of range
		{"/v1/batch", `{"ops": [{"l": 1, "d": 9}]}`},      // bad content class
		{"/v1/batch", `not json`},
		{"/v1/batch", `{"ops": []}`},
		{"/v1/batch", `{"ops": [{"l": 1}, {"l": 999999}]}`}, // one bad op fails the batch
	}
	for _, tc := range cases {
		resp, err := http.Post(c.BaseURL+tc.path, "application/json",
			strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	// The single-op endpoints are gone: Write and Read ride /v1/batch.
	for _, path := range []string{"/v1/write", "/v1/read"} {
		resp, err := http.Post(c.BaseURL+path, "application/json", strings.NewReader(`{"l": 1}`))
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
