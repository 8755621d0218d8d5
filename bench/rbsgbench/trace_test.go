package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }
	r := newRecorder(8, epoch)
	conn := r.add(-1, "conn", at(0), at(100))
	// Two pipelined frames overlap on [30,40); a third is disjoint; one
	// child sticks out past the parent's end and is clipped.
	f1 := r.add(conn, "frame", at(10), at(40))
	f2 := r.add(conn, "frame", at(30), at(50))
	r.add(conn, "frame", at(70), at(80))
	r.add(conn, "frame", at(95), at(120))
	r.add(f1, "wire.send", at(10), at(15))
	r.add(f1, "server.wait", at(15), at(40))
	r.add(f2, "wire.send", at(30), at(32))

	self := selfTimes(r.recorded())
	// conn covers [10,50) ∪ [70,80) ∪ [95,100) = 55 of 100.
	want := []int64{45, 0, 18, 10, 25, 5, 25, 2}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %d (%s): self %d, want %d", i, r.spans[i].name, self[i], w)
		}
	}
}

func TestRecorderCountsDroppedSpans(t *testing.T) {
	epoch := time.Unix(0, 0)
	r := newRecorder(2, epoch)
	for i := 0; i < 5; i++ {
		if id := r.add(-1, "s", epoch, epoch); (id >= 0) != (i < 2) {
			t.Fatalf("span %d got id %d", i, id)
		}
	}
	if got := r.dropped.Load(); got != 3 {
		t.Fatalf("dropped %d spans, want 3", got)
	}
	if got := len(r.recorded()); got != 2 {
		t.Fatalf("recorded %d spans, want 2", got)
	}
	var nilRec *recorder
	if id := nilRec.add(-1, "s", epoch, epoch); id != -1 {
		t.Fatalf("nil recorder returned id %d", id)
	}
}
