package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; parent is the index of the enclosing span or -1.
type span struct {
	parent     int32
	name       string
	start, end int64
}

// recorder keeps spans in memory allocated up front, so recording never
// allocates on the measured path. Spans past capacity are dropped and
// counted. Any goroutine may add spans.
type recorder struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newRecorder(capacity int, epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, capacity)}
}

// add records a finished span and returns its id, or -1 if it was
// dropped (a nil recorder records nothing).
func (r *recorder) add(parent int32, name string, start, end time.Time) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{parent: parent, name: name, start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))}
	return int32(i)
}

// recorded returns the spans kept so far.
func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// selfTimes returns each span's self time: its duration minus the part
// of it covered by the union of its children. Children of one span may
// overlap (pipelined frames under one connection), so the union, not
// the sum, is subtracted.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for k, v := range iv {
			switch {
			case k == 0:
				curLo, curHi = v[0], v[1]
			case v[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			case v[1] > curHi:
				curHi = v[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeSpans writes the recorded spans as DIR/<workload>.spans.json:
// one [id, parent, name, start_ns, end_ns] row per span.
func writeSpans(dir, workload string, r *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"dropped\":%d,\"fields\":[\"id\",\"parent\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":[\n",
		workload, r.dropped.Load())
	var b []byte
	for i, s := range r.recorded() {
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, ',')
		b = strconv.AppendQuote(b, s.name)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, ']')
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
