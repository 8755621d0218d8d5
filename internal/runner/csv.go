package runner

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// WriteCSV renders a Report as one CSV row per cell: the cell ID, the
// sorted union of label keys, the cell status, and the sorted union of
// metric names. Cells missing a label or metric leave that field empty.
//
// The emission is deterministic: column order derives from sorted key
// sets, row order is grid order, and runtime telemetry (wall seconds,
// writes/sec) is deliberately excluded so two runs of the same grid,
// sharded differently or not, produce byte-identical files.
// Telemetry belongs in the Meta JSON (WriteMetaFile), not here.
func WriteCSV(w io.Writer, rep *Report) error {
	labelKeys := map[string]struct{}{}
	metricKeys := map[string]struct{}{}
	for _, c := range rep.Results {
		for k := range c.Labels {
			labelKeys[k] = struct{}{}
		}
		for k := range c.Metrics.Values {
			metricKeys[k] = struct{}{}
		}
	}
	labels := sortedKeys(labelKeys)
	metrics := sortedKeys(metricKeys)

	cw := csv.NewWriter(w)
	header := append(append([]string{"cell"}, labels...), "status")
	header = append(header, metrics...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range rep.Results {
		row := make([]string, 0, len(header))
		row = append(row, c.ID)
		for _, k := range labels {
			row = append(row, c.Labels[k])
		}
		row = append(row, string(c.Status))
		for _, k := range metrics {
			v, ok := c.Metrics.Values[k]
			if !ok {
				row = append(row, "")
				continue
			}
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the Report's CSV atomically (see writeFileAtomic),
// so a crash mid-write never leaves a truncated report behind.
func WriteCSVFile(path string, rep *Report) error {
	if err := writeFileAtomic(path, func(w io.Writer) error { return WriteCSV(w, rep) }); err != nil {
		return fmt.Errorf("runner: csv: %w", err)
	}
	return nil
}

// writeFileAtomic writes path through a temporary file in the same
// directory and a rename, so the file is either absent or complete. The
// temporary file is created mode 0644, so the umask applies to it as it
// does to os.WriteFile(path, data, 0o644); os.CreateTemp would leave the
// result 0600. Its name carries the process ID, so concurrent processes
// never share one. A leftover of a killed process with the same ID is
// removed first, and O_EXCL refuses a file or link that appears at the
// name in between, so the write never follows a planted link. One
// process must not write the same path from two goroutines at once.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := filepath.Join(filepath.Dir(path), fmt.Sprintf(".%s.%d.tmp", filepath.Base(path), os.Getpid()))
	os.Remove(tmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func sortedKeys(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
