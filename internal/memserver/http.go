package memserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"securityrbsg/internal/pcm"
)

// The JSON API: the control plane (/healthz, /metrics) plus POST
// /v1/batch, a plain encoding/json front for the batch engine. Content
// classes travel as the pcm.Content integers: 0 = ALL-0 (RESET write),
// 1 = ALL-1 (SET write), 2 = MIXED. Responses carry simulated device
// latency in nanoseconds — the value the paper's attacker observes — so
// the timing side channel crosses the wire intact (internal/memserver's
// attack regression test depends on it).

// BatchOp is one operation inside POST /v1/batch. The zero op is a
// write of ALL-0; set R for a read, D for the content class.
type BatchOp struct {
	Line uint64 `json:"l"`
	Read bool   `json:"r,omitempty"`
	Data uint8  `json:"d,omitempty"`
}

// BatchRequest is the body of POST /v1/batch. Ops are coalesced into
// one queue entry per touched bank; op order is preserved within each
// bank but banks execute concurrently, so ops to different banks may
// interleave with other requests. A batch is not atomic under
// backpressure: banks whose queues are full reject their share while
// the rest applies (the response says how much of each happened).
type BatchRequest struct {
	Ops []BatchOp `json:"ops"`
}

// BatchResponse answers a batch. Ns and Data align with Ops; rejected
// ops report zero latency. NsMax is the slowest op — the latency a
// stalled demand request would have observed behind remapping.
type BatchResponse struct {
	Applied  int      `json:"applied"`
	Rejected int      `json:"rejected"`
	NsSum    uint64   `json:"ns_sum"`
	NsMax    uint64   `json:"ns_max"`
	Ns       []uint64 `json:"ns"`
	Data     []uint8  `json:"d"`
}

// Reset empties r for a batch of n ops: zero accounting and n zeroed
// Ns/Data slots, reusing r's capacity.
//
//rbsglint:hotpath
func (r *BatchResponse) Reset(n int) {
	r.Applied, r.Rejected, r.NsSum, r.NsMax = 0, 0, 0, 0
	r.Ns = resizeZeroed(r.Ns, n)
	r.Data = resizeZeroed(r.Data, n)
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// retryAfter is the Retry-After header value (seconds) sent with 429.
const retryAfter = "1"

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleBatch validates the request, then runs it through executeBatch:
// banks run concurrently, and a full queue rejects only that bank's
// share (reported via 429 + counts).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	for _, o := range req.Ops {
		if o.Line >= s.cfg.Lines {
			writeErr(w, http.StatusBadRequest, "line %d out of space of %d lines", o.Line, s.cfg.Lines)
			return
		}
		if o.Data > 2 {
			writeErr(w, http.StatusBadRequest, "content class %d not in {0,1,2}", o.Data)
			return
		}
	}

	sc := newBatchScratch(s.cfg.Banks)
	sc.ops = req.Ops
	draining := s.executeBatch(sc)
	resp := &sc.resp
	s.jsonLineOps.Add(uint64(resp.Applied))
	switch {
	case resp.Applied == 0 && draining:
		writeErr(w, http.StatusServiceUnavailable, "server draining")
	case resp.Rejected > 0:
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests, resp)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// batchScratch is one batch's execution state: the validated ops, the
// per-bank coalescing runs (indexed by bank, `order` listing the banks
// touched this batch in first-touch order), the batch's one completion
// and the response with its aligned arrays. A scratch serves one batch
// at a time; a binary connection keeps one for its lifetime, a JSON
// request makes its own.
type batchScratch struct {
	ops   []BatchOp
	runs  []bankRun
	order []int
	done  sync.WaitGroup
	resp  BatchResponse
}

func newBatchScratch(banks int) *batchScratch {
	return &batchScratch{runs: make([]bankRun, banks)}
}

// bankRun is one bank's slice of a batch: its ops, each op's position
// in the batch, and the actor's results. Runs are embedded in the batch
// scratch, and their backing arrays are reused across batches.
type bankRun struct {
	bank int
	ops  []op
	idx  []int
	res  []opResult
}

// resetRuns clears the per-bank runs touched by the last batch so the
// scratch can host another one.
//
//rbsglint:hotpath
func resetRuns(sc *batchScratch) {
	for _, b := range sc.order {
		run := &sc.runs[b]
		run.ops = run.ops[:0]
		run.idx = run.idx[:0]
	}
	sc.order = sc.order[:0]
}

// executeBatch is the transport-independent batch engine: coalesce the
// already-validated ops in sc.ops into one run per touched bank
// (preserving request order), enqueue every run without blocking, wait
// once for the actors that took one, then scatter the results into
// sc.resp, whose Ns/Data align with the ops (rejected ops report zero).
// Both the JSON handler and the binary frame handler call it, so the
// banks — and the timing signal they emit — cannot tell the protocols
// apart. It reports whether a drain caused any of the rejections.
//
//rbsglint:hotpath
func (s *Server) executeBatch(sc *batchScratch) (draining bool) {
	ops := sc.ops
	for i, o := range ops {
		bank, local := s.mem.Route(o.Line)
		run := &sc.runs[bank]
		if len(run.idx) == 0 {
			run.bank = bank
			sc.order = append(sc.order, bank)
		}
		run.ops = append(run.ops, op{local: local, read: o.Read, content: pcm.Content(o.Data)})
		run.idx = append(run.idx, i)
	}

	// Every run counts once in sc.done: its actor's Done, or ours when
	// the queue refused it. Add precedes every enqueue, and this batch's
	// Wait precedes the next batch's Add.
	resp := &sc.resp
	resp.Reset(len(ops))
	sc.done.Add(len(sc.order))
	for _, b := range sc.order {
		run := &sc.runs[b]
		err := s.enqueue(run, &sc.done)
		if err == nil {
			continue
		}
		if err == errDraining {
			draining = true
		}
		sc.done.Done()
		run.res = run.res[:0] // nothing applied
		resp.Rejected += len(run.ops)
	}
	sc.done.Wait()
	for _, b := range sc.order {
		run := &sc.runs[b]
		for j, res := range run.res {
			i := run.idx[j]
			resp.Ns[i] = res.ns
			resp.Data[i] = uint8(res.content)
			resp.NsSum += res.ns
			if res.ns > resp.NsMax {
				resp.NsMax = res.ns
			}
		}
		resp.Applied += len(run.res)
	}
	return draining
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
