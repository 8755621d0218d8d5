package trace_test

import (
	"bytes"
	"fmt"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/trace"
	"securityrbsg/internal/wear"
)

// Example records a tiny trace and replays it against Start-Gap.
func Example() {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, 64)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 10; i++ {
		w.Add(trace.Op{Write: true, Line: 7, Content: pcm.Mixed})
	}
	w.Add(trace.Op{Line: 7}) // a read
	w.Flush()

	scheme, _ := startgap.NewSingle(64, 4)
	ctrl, _ := wear.NewController(pcm.Config{
		Endurance: 1000,
	}, scheme)
	r, _ := trace.NewReader(&buf)
	st, err := trace.Replay(ctrl, r)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d writes, %d reads, failed=%v\n", st.Writes, st.Reads, st.Failed)
	// Output:
	// 10 writes, 1 reads, failed=false
}
