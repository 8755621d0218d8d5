package memserver

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client reads a memctld (or memrouterd) HTTP control plane: /healthz
// and /metrics. Demand ops go through BinaryClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8100".
	BaseURL string
}

// controlHTTP is every Client's transport: the control plane answers
// from published snapshots, so a scrape that stalls this long means
// the server is gone.
var controlHTTP = &http.Client{Timeout: 30 * time.Second}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{BaseURL: base}
}

// Healthz returns nil while the server accepts traffic.
func (c *Client) Healthz() error {
	resp, err := controlHTTP.Get(c.BaseURL + "/healthz")
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
	resp, err := controlHTTP.Get(c.BaseURL + "/metrics")
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
