package memserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"securityrbsg/internal/pcm"
)

// Client speaks the memctld JSON API. Its Write and Read methods match
// attack.Target — logical address in, simulated latency out — so every
// attacker in internal/attack can run unmodified against a live server,
// which is exactly what the wire-level regression test does.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8100".
	BaseURL string
	// HTTP is the transport; nil means a default client.
	HTTP *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{BaseURL: base, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// BackpressureError reports a 429 or a Nack frame, and how long the
// server asked us to back off.
type BackpressureError struct {
	RetryAfter time.Duration
	// Resp holds the partial batch accounting when the answer carried
	// it (nil otherwise).
	Resp *BatchResponse
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("server backpressure, retry after %v", e.RetryAfter)
}

// mustBatch runs one batch through batch, sleeping out backpressure
// until it applies: demand ops must not be silently dropped (an
// attacker's write stream, like a CPU's, just stalls until the
// controller accepts it). It panics on any other error: both clients'
// Write and Read exist to satisfy attack.Target for tests and demos,
// where a broken server is fatal.
func mustBatch(batch func([]BatchOp) (*BatchResponse, error), ops []BatchOp) *BatchResponse {
	for {
		resp, err := batch(ops)
		if err == nil {
			return resp
		}
		be, ok := err.(*BackpressureError)
		if !ok {
			panic(fmt.Errorf("memserver client: batch: %w", err)) //rbsglint:allow panicpolicy -- documented attack.Target contract: a broken server is fatal in the tests/demos this client exists for
		}
		time.Sleep(be.RetryAfter)
	}
}

// Write issues one demand write as a 1-op batch and returns the
// simulated latency in nanoseconds; it panics on transport errors
// (mustBatch).
func (c *Client) Write(la uint64, content pcm.Content) uint64 {
	return mustBatch(c.Batch, []BatchOp{{Line: la, Data: uint8(content)}}).Ns[0]
}

// Read issues one demand read; same contract as Write.
func (c *Client) Read(la uint64) (pcm.Content, uint64) {
	resp := mustBatch(c.Batch, []BatchOp{{Line: la, Read: true}})
	return pcm.Content(resp.Data[0]), resp.Ns[0]
}

// Batch submits ops to /v1/batch. On backpressure it returns a
// *BackpressureError carrying the partial accounting.
func (c *Client) Batch(ops []BatchOp) (*BatchResponse, error) {
	body, err := json.Marshal(BatchRequest{Ops: ops})
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Post(c.BaseURL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out BatchResponse
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		return &out, nil
	case http.StatusTooManyRequests:
		be := &BackpressureError{RetryAfter: time.Second}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			be.RetryAfter = time.Duration(secs) * time.Second
		}
		if json.NewDecoder(resp.Body).Decode(&out) == nil {
			be.Resp = &out
		}
		return nil, be
	}
	var e errorResponse
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return nil, fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return nil, fmt.Errorf("/v1/batch: %s", resp.Status)
}

// Healthz returns nil while the server accepts traffic.
func (c *Client) Healthz() error {
	resp, err := c.httpClient().Get(c.BaseURL + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// Metrics scrapes /metrics and returns per-name totals summed over
// banks (see ParseMetrics).
func (c *Client) Metrics() (map[string]float64, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return ParseMetrics(string(text)), nil
}
