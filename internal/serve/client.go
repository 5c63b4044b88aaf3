package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
)

// Client speaks the tuning-service protocol from the other side: it
// encodes core.Options into the POST /sweep wire form (the exact inverse
// of decodeOptions, pinned by TestClientEncodeRoundTrip) and decodes the
// report and cache-status answer. The auto-tuner's HTTP evaluator backend
// is built on it, so repeated probe configurations are answered from the
// service's content-addressed cache instead of recomputed.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8439".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// CacheStatus reports which path answered a sweep, from the X-Cache
// header: "hit" (served from the result cache), "coalesced" (shared an
// in-flight identical computation), or "miss" (led a fresh computation).
type CacheStatus string

// The cache-status values the service emits.
const (
	CacheHit       CacheStatus = "hit"
	CacheCoalesced CacheStatus = "coalesced"
	CacheMiss      CacheStatus = "miss"
)

// Cached reports whether the answer reused an existing or in-flight
// computation rather than costing a fresh one.
func (c CacheStatus) Cached() bool { return c == CacheHit || c == CacheCoalesced }

// SweepReport is the decoded POST /sweep answer: the stable report JSON
// schema (core.Report.MarshalJSON) from the client's side.
type SweepReport struct {
	Benchmark string        `json:"benchmark"`
	Cluster   string        `json:"cluster"`
	Impl      string        `json:"impl"`
	Mode      string        `json:"mode"`
	Buffer    string        `json:"buffer,omitempty"`
	GPU       bool          `json:"gpu,omitempty"`
	Ranks     int           `json:"ranks"`
	PPN       int           `json:"ppn"`
	Faults    string        `json:"faults,omitempty"`
	Rows      []SweepRow    `json:"rows"`
	Failure   *core.Failure `json:"failure,omitempty"`
}

// SweepRow is one message-size row of a sweep report.
type SweepRow struct {
	Size      int     `json:"size"`
	AvgUs     float64 `json:"avg_us"`
	MinUs     float64 `json:"min_us"`
	MaxUs     float64 `json:"max_us"`
	MBps      float64 `json:"mbps,omitempty"`
	Messages  float64 `json:"messages_per_s,omitempty"`
	CommUs    float64 `json:"comm_us,omitempty"`
	TotalUs   float64 `json:"total_us,omitempty"`
	OverlapPc float64 `json:"overlap_pct,omitempty"`
}

// Sweep posts one benchmark configuration and returns the decoded report
// plus the cache path that answered it. Non-2xx answers (validation
// errors, shedding, draining) surface as errors carrying the service's
// message.
func (c *Client) Sweep(ctx context.Context, opts core.Options) (*SweepReport, CacheStatus, error) {
	body, err := EncodeOptions(opts)
	if err != nil {
		return nil, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	status := CacheStatus(resp.Header.Get("X-Cache"))
	if resp.StatusCode != http.StatusOK {
		return nil, status, fmt.Errorf("serve: POST /sweep: %s: %s", resp.Status, serviceError(data))
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, status, fmt.Errorf("serve: decoding sweep report: %w", err)
	}
	return &rep, status, nil
}

// Stats fetches the service counters from GET /stats.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/stats", nil)
	if err != nil {
		return Stats{}, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return Stats{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return Stats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Stats{}, fmt.Errorf("serve: GET /stats: %s: %s", resp.Status, serviceError(data))
	}
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		return Stats{}, fmt.Errorf("serve: decoding stats: %w", err)
	}
	return st, nil
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// serviceError extracts the {"error": ...} message from an error body,
// falling back to the raw bytes.
func serviceError(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(data))
}

// EncodeOptions renders core.Options as a POST /sweep body: their JSON
// form, the exact inverse of decodeOptions. Options carrying a Profiler
// hook cannot travel and are rejected.
func EncodeOptions(opts core.Options) ([]byte, error) {
	if opts.Profiler != nil {
		return nil, fmt.Errorf("serve: options with a Profiler hook cannot be sent over HTTP")
	}
	if opts.Benchmark == "" {
		return nil, fmt.Errorf("serve: options need a benchmark")
	}
	return json.Marshal(opts)
}
