package runner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func csvReport() *Report {
	return &Report{
		Grid: "t",
		Results: []CellResult{
			{
				ID:     "b-cell",
				Labels: map[string]string{"scheme": "rbsg", "attack": "raa"},
				Status: StatusDone,
				Metrics: Metrics{Values: map[string]float64{
					"writes": 1234567, "wear_gini": 0.25,
				}},
				WallSeconds:  3.5,
				WritesPerSec: 1e6,
			},
			{
				ID:     "a-cell",
				Labels: map[string]string{"scheme": "none"},
				Status: StatusDone,
				Metrics: Metrics{Values: map[string]float64{
					"writes": 42, "extra": 0.5,
				}},
				WallSeconds: 99,
			},
		},
	}
}

func TestWriteCSVDeterministic(t *testing.T) {
	rep := csvReport()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	want := "cell,attack,scheme,status,extra,wear_gini,writes\n" +
		"b-cell,raa,rbsg,done,,0.25,1.234567e+06\n" +
		"a-cell,,none,done,0.5,,42\n"
	if got := buf.String(); got != want {
		t.Fatalf("CSV bytes:\n%s\nwant:\n%s", got, want)
	}
}

// Failure statuses must survive into the file: a partial run's CSV has
// to say which cells are missing.
func TestWriteCSVKeepsFailureStatuses(t *testing.T) {
	rep := csvReport()
	rep.Results[0].Status = StatusFailed
	rep.Results[1].Status = StatusCancelled
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(",failed,")) ||
		!bytes.Contains(buf.Bytes(), []byte(",cancelled,")) {
		t.Fatalf("failure statuses folded away:\n%s", buf.String())
	}
}

func TestWriteCSVFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteCSVFile(path, csvReport()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, csvReport()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatal("file contents differ from direct emission")
	}
	// No temp-file droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files in dir: %v", entries)
	}
}

// TestAtomicWritersFileMode: both atomic writers leave their file with
// the mode os.WriteFile(…, 0o644) gives under the same umask (a temp
// file from os.CreateTemp would leave it 0600), and no temporary file
// behind.
func TestAtomicWritersFileMode(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref")
	if err := os.WriteFile(ref, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fileMode(t, ref)
	csvPath := filepath.Join(dir, "out.csv")
	metaPath := filepath.Join(dir, "runmeta.json")
	if err := WriteCSVFile(csvPath, csvReport()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetaFile(metaPath, csvReport()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{csvPath, metaPath} {
		if got := fileMode(t, p); got != want {
			t.Errorf("%s: mode %v, want %v (os.WriteFile's under the same umask)", filepath.Base(p), got, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("stray files in dir: %v", entries)
	}
}

// TestAtomicWriterReplacesLeftoverLink: a link left at the writer's
// temporary name (a killed run's leftover, or a planted one) is
// replaced, never followed, so the file it points at keeps its bytes.
func TestAtomicWriterReplacesLeftoverLink(t *testing.T) {
	dir := t.TempDir()
	victim := filepath.Join(t.TempDir(), "victim")
	if err := os.WriteFile(victim, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(victim, filepath.Join(dir, fmt.Sprintf(".out.csv.%d.tmp", os.Getpid()))); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVFile(filepath.Join(dir, "out.csv"), csvReport()); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != "keep" {
		t.Fatalf("link target now reads %q (%v), want it untouched", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.csv" {
		t.Fatalf("dir holds %v, want only out.csv", entries)
	}
}

func fileMode(t *testing.T, path string) os.FileMode {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Mode()
}
