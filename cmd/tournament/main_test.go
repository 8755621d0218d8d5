package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGolden compares `tournament -list` — every scheme with its
// capabilities, every attack, each exact-tier pairing with its verdict
// and the model-tier pairs — with testdata/list.golden, so a change to
// the plugin table shows up here even for cells no smoke plays. After
// an intended change, regenerate it with
//
//	go run ./cmd/tournament -list > cmd/tournament/testdata/list.golden
func TestGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tournament")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	got, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("tournament -list: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
	}
}
