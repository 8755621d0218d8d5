package memserver

import (
	"encoding/json"
	"fmt"
	"net/http"

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

// executeBatch is the transport-independent batch engine: coalesce the
// already-validated ops in sc.ops into one run per touched bank
// (preserving request order), enqueue every run without blocking, then
// collect into sc.resp, whose Ns/Data align with the ops (rejected ops
// report zero). Both the JSON handler and the binary frame handler
// call it, so the banks — and the timing signal they emit — cannot
// tell the protocols apart. It reports whether a drain caused any of
// the rejections.
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

	// Phase 1: enqueue everything (non-blocking), phase 2: collect.
	resp := &sc.resp
	resp.Reset(len(ops))
	for _, b := range sc.order {
		run := &sc.runs[b]
		reply, err := s.enqueue(run.bank, run.ops)
		switch err {
		case nil:
			run.reply = reply
		case errDraining:
			draining = true
			resp.Rejected += len(run.ops)
		default:
			resp.Rejected += len(run.ops)
		}
	}
	for _, b := range sc.order {
		run := &sc.runs[b]
		if run.reply == nil {
			continue
		}
		rb := <-run.reply
		putReply(run.reply)
		for j, res := range rb.res {
			i := run.idx[j]
			resp.Ns[i] = res.ns
			resp.Data[i] = uint8(res.content)
			resp.NsSum += res.ns
			if res.ns > resp.NsMax {
				resp.NsMax = res.ns
			}
		}
		resp.Applied += len(rb.res)
		putResBuf(rb)
	}
	return draining
}

// bankRun is one bank's slice of a batch plus where its results land.
// Runs are embedded in the batch scratch; the ops/idx backing arrays
// are reused across batches.
type bankRun struct {
	bank  int
	ops   []op
	idx   []int
	reply chan *resBuf
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
