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

// TestSIGTERMAtReadiness signals memctld the instant its address file
// appears — the moment scripts take it as ready — and requires a clean
// drain every time: exit 0 and the drain line, never death by signal.
func TestSIGTERMAtReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon 20 times")
	}
	bin := filepath.Join(t.TempDir(), "memctld")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		addrFile := filepath.Join(dir, "addr")
		cmd := exec.Command(bin, "-banks", "2", "-lines", "2048",
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-binary-addr", "127.0.0.1:0", "-binary-addr-file", filepath.Join(dir, "bin.addr"))
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
		if !strings.Contains(stderr.String(), "memctld: drained cleanly") {
			t.Fatalf("run %d: no clean-drain line\n%s", i, stderr.String())
		}
	}
}

// TestEmptyListenAddrRefused: net.Listen("tcp", "") binds every
// interface on a random port, so memctld refuses an empty -addr or
// -binary-addr with exit 1 and names the flag instead of serving.
func TestEmptyListenAddrRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := filepath.Join(t.TempDir(), "memctld")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, name := range []string{"-addr", "-binary-addr"} {
		// The flag under test comes last, so it overrides the free-port
		// address before it.
		out, err := exec.CommandContext(ctx, bin, "-banks", "2", "-lines", "2048",
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
