package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/wear"
	"securityrbsg/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 128)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Write: true, Line: 5, Content: pcm.Zeros},
		{Write: true, Line: 6, Content: pcm.Ones},
		{Write: true, Line: 7, Content: pcm.Mixed},
		{Line: 5},
	}
	for _, op := range ops {
		if err := w.Add(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Fatalf("count %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lines() != 128 {
		t.Fatalf("lines %d", r.Lines())
	}
	for i, want := range ops {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestWriterRejectsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 8)
	if err := w.Add(Op{Write: true, Line: 8}); err == nil {
		t.Fatal("out-of-range record accepted")
	}
	// The writer latches its error.
	if err := w.Add(Op{Write: true, Line: 0}); err == nil {
		t.Fatal("writer should stay failed")
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# pcmtrace v1 lines=16\n\n# a comment\nW 3 M\n\nR 3\n"
	r, err := NewReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	op, err := r.Next()
	if err != nil || !op.Write || op.Line != 3 {
		t.Fatalf("first record %+v %v", op, err)
	}
	op, err = r.Next()
	if err != nil || op.Write || op.Line != 3 {
		t.Fatalf("second record %+v %v", op, err)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []string{
		"",                                   // empty
		"not a header\n",                     // bad header
		"# pcmtrace v1 lines=8\nX 1\n",       // bad opcode
		"# pcmtrace v1 lines=8\nW 1\n",       // missing content
		"# pcmtrace v1 lines=8\nW abc M\n",   // bad address
		"# pcmtrace v1 lines=8\nW 1 Q\n",     // bad content
		"# pcmtrace v1 lines=8\nW 99 M\n",    // out of range
		"# pcmtrace v1 lines=8\nR onehalf\n", // bad read address
	}
	for i, in := range cases {
		r, err := NewReader(strings.NewReader(in))
		if err != nil {
			continue // header-level failure is fine for the first two
		}
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Errorf("case %d accepted malformed input", i)
		}
	}
}

func TestReplayDeterminism(t *testing.T) {
	// Generate a workload trace, replay it twice, expect identical state.
	prof, _ := workload.ByName("dedup")
	gen := workload.NewGenerator(prof, 256, 42)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 256)
	for i := 0; i < 5000; i++ {
		a := gen.Next()
		c := pcm.Mixed
		if i%3 == 0 {
			c = pcm.Zeros
		}
		if err := w.Add(Op{Write: a.Write, Line: a.Line, Content: c}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	raw := buf.Bytes()

	run := func() ([]uint32, ReplayStats) {
		s, _ := startgap.NewSingle(256, 16)
		c := wear.MustNewController(pcm.Config{
			Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
		}, s)
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		st, err := Replay(c, r)
		if err != nil {
			t.Fatal(err)
		}
		return c.Bank().WearSnapshot(nil), st
	}
	w1, s1 := run()
	w2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("wear diverged at PA %d", i)
		}
	}
	if s1.Writes+s1.Reads != 5000 {
		t.Fatalf("replayed %d ops", s1.Writes+s1.Reads)
	}
}

func TestReplayStopsOnFailure(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 8)
	for i := 0; i < 100; i++ {
		w.Add(Op{Write: true, Line: 2, Content: pcm.Mixed})
	}
	w.Flush()
	c := wear.MustNewController(pcm.Config{
		Endurance: 10, Timing: pcm.DefaultTiming,
	}, wear.NewPassthrough(8))
	r, _ := NewReader(&buf)
	st, err := Replay(c, r)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Failed || st.FailedPA != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Writes != 11 {
		t.Fatalf("should stop at failure: %d writes", st.Writes)
	}
}

func TestReplayRejectsOversizedTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1024)
	w.Add(Op{Write: true, Line: 0, Content: pcm.Mixed})
	w.Flush()
	c := wear.MustNewController(pcm.Config{
		Endurance: 10, Timing: pcm.DefaultTiming,
	}, wear.NewPassthrough(8))
	r, _ := NewReader(&buf)
	if _, err := Replay(c, r); err == nil {
		t.Fatal("oversized trace accepted")
	}
}
