package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"securityrbsg/internal/memserver"
)

// fakeEnv makes the test binary act as a memctld whose binary listener
// corrupts one response (see fakeMemctld).
const fakeEnv = "RBSGBENCH_FAKE_MEMCTLD"

func TestMain(m *testing.M) {
	if os.Getenv(fakeEnv) != "" {
		os.Exit(fakeMemctld(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// lastJSON parses the result line the driver printed last.
func lastJSON(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestSmoke builds the daemons from this tree and runs every workload
// at toy geometry, untraced and traced, with all output checks on.
func TestSmoke(t *testing.T) {
	bin := t.TempDir()
	if err := buildDaemons(filepath.Join("..", ".."), bin); err != nil {
		t.Fatal(err)
	}
	t.Run("untraced", func(t *testing.T) {
		var out bytes.Buffer
		if code := run([]string{"-smoke", "-bin", bin, "-work", t.TempDir()}, &out); code != 0 {
			t.Fatalf("exit %d\n%s", code, out.String())
		}
		r := lastJSON(t, out.String())
		if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
			t.Fatalf("result %+v", r)
		}
		for _, w := range workloads {
			for _, d := range endToEnd {
				if m, ok := r.Metrics[w.name+"/"+d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s/%s = %+v, want a positive value in %s", w.name, d.name, m, d.unit)
				}
			}
		}
	})
	t.Run("traced", func(t *testing.T) {
		work := t.TempDir()
		var out bytes.Buffer
		if code := run([]string{"-smoke", "-trace", "1", "-bin", bin, "-work", work}, &out); code != 0 {
			t.Fatalf("exit %d\n%s", code, out.String())
		}
		r := lastJSON(t, out.String())
		defs, err := perLayer()
		if err != nil {
			t.Fatal(err)
		}
		if want := len(defs) * len(workloads); !r.Correct || len(r.Metrics) != want {
			t.Fatalf("correct=%v with %d metrics, want %d", r.Correct, len(r.Metrics), want)
		}
		for _, w := range workloads {
			if _, err := os.Stat(filepath.Join(work, "trace", w.name+".spans.json")); err != nil {
				t.Errorf("no span file for %s: %v", w.name, err)
			}
		}
		for _, name := range []string{"serve_uniform/wire.send_us", "serve_uniform/server.wait_p99_us",
			"serve_routed/memrouter.split_frame_ratio", "serve_attack_large/seclevel.raises",
			"sim_tournament/runner.critical_cell_s", "serve_uniform/feistel.map_ns"} {
			if r.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want a measured value", name, r.Metrics[name].Value)
			}
		}
	})
}

// TestCorruptedResponseFailsTheRun points the driver at a memctld whose
// binary listener flips one data byte in one response: the run must
// end with a non-zero exit and a result marked incorrect.
func TestCorruptedResponseFailsTheRun(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if err := os.Symlink(self, filepath.Join(bin, "memctld")); err != nil {
		t.Fatal(err)
	}
	t.Setenv(fakeEnv, "1")
	var out bytes.Buffer
	code := run([]string{"-smoke", "-workload", "serve_uniform", "-bin", bin, "-work", t.TempDir()}, &out)
	if code == 0 {
		t.Fatalf("driver exited 0 against a corrupting server\n%s", out.String())
	}
}

// corruptFrame is the response frame (counted from 1 per connection)
// whose first data byte the fake flips.
const corruptFrame = 100

// fakeMemctld serves a real in-process memserver under memctld's
// command line, except that the binary listener is a proxy that flips
// the first op's data byte in one response frame. It drains on SIGTERM
// like memctld.
func fakeMemctld(args []string) int {
	fs := flag.NewFlagSet("memctld", flag.ContinueOnError)
	addr := fs.String("addr", "", "")
	addrFile := fs.String("addr-file", "", "")
	binAddr := fs.String("binary-addr", "", "")
	binAddrFile := fs.String("binary-addr-file", "", "")
	banks := fs.Int("banks", 8, "")
	lines := fs.Uint64("lines", 1<<14, "")
	scheme := fs.String("scheme", "", "")
	seed := fs.Uint64("seed", 1, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "fake memctld:", err)
		return 1
	}
	srv, err := memserver.New(memserver.Config{Banks: *banks, Lines: *lines, Scheme: *scheme, Seed: *seed})
	if err != nil {
		return fail(err)
	}
	srv.Start()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go srv.ServeBinary(inner)
	front, err := net.Listen("tcp", *binAddr)
	if err != nil {
		return fail(err)
	}
	go proxyCorrupting(front, inner.Addr().String())
	ctl, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	go http.Serve(ctl, srv.Handler())
	if err := os.WriteFile(*addrFile, []byte(ctl.Addr().String()), 0o644); err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*binAddrFile, []byte(front.Addr().String()), 0o644); err != nil {
		return fail(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	front.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.ShutdownBinary(ctx)
	srv.Drain(ctx)
	fmt.Fprintln(os.Stderr, "fake memctld: drained cleanly")
	return 0
}

func proxyCorrupting(front net.Listener, upstream string) {
	for {
		c, err := front.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			u, err := net.Dial("tcp", upstream)
			if err != nil {
				return
			}
			defer u.Close()
			go io.Copy(u, c)
			var hdr [4]byte
			for n := 1; ; n++ {
				if _, err := io.ReadFull(u, hdr[:]); err != nil {
					return
				}
				body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
				if _, err := io.ReadFull(u, body); err != nil {
					return
				}
				// BatchResp: version, type, 28-byte header, then 9-byte
				// (ns, data) records; the first data byte is at 2+28+8.
				if n == corruptFrame && body[1] == wireBatchResp && len(body) > 38 {
					body[38] ^= 1
				}
				if _, err := c.Write(append(hdr[:], body...)); err != nil {
					return
				}
			}
		}()
	}
}
