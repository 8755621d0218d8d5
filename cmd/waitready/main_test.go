package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the contract scripts rely on: exit 0 with the
// addresses on stdout once every file is ready, and exit 1 naming each
// laggard and why once -timeout passes, so a boot script fails fast.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "waitready")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	defer healthy.Close()
	// An address where nothing listens: bind a port, then free it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	addrFile := func(name, addr string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(addr+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ready := addrFile("ready", healthy.Listener.Addr().String())
	missing := filepath.Join(dir, "missing")
	unhealthy := addrFile("unhealthy", dead)

	for _, tc := range []struct {
		name         string
		args         []string
		code         int
		stdout, diag string
	}{
		{"ready", []string{"-healthz", ready}, 0, healthy.Listener.Addr().String() + "\n", ""},
		{"missing file", []string{"-timeout", "50ms", missing}, 1, "", missing + ": file empty or missing"},
		{"not healthy", []string{"-timeout", "50ms", "-healthz", unhealthy}, 1, "", unhealthy + ": " + dead + " not healthy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			got, _ := cmd.Output()
			if code := cmd.ProcessState.ExitCode(); code != tc.code {
				t.Fatalf("exit %d, want %d\n%s", code, tc.code, stderr.String())
			}
			if string(got) != tc.stdout {
				t.Errorf("stdout %q, want %q", got, tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.diag) {
				t.Errorf("stderr %q does not name %q", stderr.String(), tc.diag)
			}
		})
	}
}
