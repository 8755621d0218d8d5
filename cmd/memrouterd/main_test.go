package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMAtReadiness signals memrouterd the instant its address
// file appears — the moment scripts take it as ready — and requires a
// clean drain every time: exit 0 and the drain line, never death by
// signal. One memctld serves as the shard for all 20 runs.
func TestSIGTERMAtReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	dir := t.TempDir()
	router, shard := filepath.Join(dir, "memrouterd"), filepath.Join(dir, "memctld")
	for bin, pkg := range map[string]string{router: ".", shard: "../memctld"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	ctlFile, binFile := filepath.Join(dir, "shard.addr"), filepath.Join(dir, "shard.bin")
	sh := exec.Command(shard, "-banks", "2", "-lines", "2048",
		"-addr", "127.0.0.1:0", "-addr-file", ctlFile,
		"-binary-addr", "127.0.0.1:0", "-binary-addr-file", binFile)
	if err := sh.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sh.Process.Signal(syscall.SIGTERM)
		sh.Wait()
	})
	ctl, bin := waitForFile(t, sh, ctlFile), waitForFile(t, sh, binFile)

	for i := 0; i < 20; i++ {
		runDir := t.TempDir()
		addrFile := filepath.Join(runDir, "addr")
		cmd := exec.Command(router, "-shards", string(bin), "-shard-control", string(ctl), "-lines", "2048",
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-binary-addr", "127.0.0.1:0", "-binary-addr-file", filepath.Join(runDir, "bin.addr"))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitForFile(t, cmd, addrFile)
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "memrouterd: drained cleanly") {
			t.Fatalf("run %d: no clean-drain line\n%s", i, stderr.String())
		}
	}
}

// TestEmptyListenAddrRefused: net.Listen("tcp", "") binds every
// interface on a random port, so memrouterd refuses an empty -addr or
// -binary-addr with exit 1 and names the flag instead of serving.
func TestEmptyListenAddrRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := filepath.Join(t.TempDir(), "memrouterd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, name := range []string{"-addr", "-binary-addr"} {
		// The flag under test comes last, so it overrides the free-port
		// address before it. No shard listens on port 1: the router must
		// refuse before it dials.
		out, err := exec.CommandContext(ctx, bin, "-shards", "127.0.0.1:1", "-lines", "2048",
			"-addr", "127.0.0.1:0", "-binary-addr", "127.0.0.1:0", name, "").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), name+" is empty") {
			t.Errorf("%s \"\": %v\n%s\nwant exit status 1 naming the flag", name, err, out)
		}
	}
}

// waitForFile polls for path to hold content as fast as the scheduler
// allows and returns it, killing cmd if it never does.
func waitForFile(t *testing.T, cmd *exec.Cmd, path string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return b
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("%s never got written", path)
		}
		time.Sleep(20 * time.Microsecond)
	}
}
