package memserver

import (
	"encoding/json"
	"net/http"
)

// The HTTP API is the control plane only: GET /healthz and GET /metrics
// (metrics.go). Demand ops travel on the binary wire alone (binary.go),
// so the per-op latencies the paper's attacker observes cross exactly
// one serialization.

// Handler returns the service's HTTP control plane.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleHealthz answers 200 while the server accepts traffic and 503
// once Drain has begun.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, body := http.StatusOK, map[string]string{"status": "ok"}
	if s.Draining() {
		status, body = http.StatusServiceUnavailable, map[string]string{"error": "draining"}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
