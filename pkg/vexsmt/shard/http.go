package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/resilience"
	"vexsmt/pkg/vexsmt/sched"
)

// HTTP is the remote backend: it runs jobs on a vexsmtd daemon over its
// /v1 control plane, one request per job — a one-shot POST of the job's
// cells whose response streams the acknowledgement, the cells and the
// terminal status as NDJSON. The daemon cancels and evicts the plan when
// the request ends, so context cancellation reaches the remote simulation
// as a hang-up, with no separate DELETE.
type HTTP struct {
	base          string
	client        *http.Client
	healthTimeout time.Duration
}

// defaultHealthTimeout bounds a /healthz probe: health checks are a
// placement signal, and a daemon that cannot answer one quickly should be
// left out of the round rather than stall it. The value is the fleet-wide
// probe policy's attempt budget (resilience.Probe).
var defaultHealthTimeout = resilience.Probe().AttemptTimeout

// HTTPOption configures an HTTP backend.
type HTTPOption func(*HTTP)

// WithClient substitutes the http.Client used for every request (for
// custom transports or timeouts). Clients must not set an overall request
// timeout shorter than a job's runtime: the one-shot response stays open
// for the whole simulation.
func WithClient(c *http.Client) HTTPOption {
	return func(h *HTTP) { h.client = c }
}

// WithHealthTimeout bounds each Health probe. Zero or negative restores
// the default (2s). Job submission and result streaming are unaffected —
// only the /healthz round-trip is clamped.
func WithHealthTimeout(d time.Duration) HTTPOption {
	return func(h *HTTP) {
		if d > 0 {
			h.healthTimeout = d
		} else {
			h.healthTimeout = defaultHealthTimeout
		}
	}
}

// NewHTTP builds a backend for the vexsmtd at baseURL (e.g.
// "http://host:8080").
func NewHTTP(baseURL string, opts ...HTTPOption) (*HTTP, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("shard: backend url %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("shard: backend url %q: need scheme and host", baseURL)
	}
	h := &HTTP{
		base:          strings.TrimRight(baseURL, "/"),
		client:        http.DefaultClient,
		healthTimeout: defaultHealthTimeout,
	}
	for _, o := range opts {
		o(h)
	}
	return h, nil
}

// Name implements Backend: the base URL identifies the daemon.
func (h *HTTP) Name() string { return h.base }

// Health implements Backend via GET /healthz, bounded by the backend's
// health timeout (WithHealthTimeout) on top of whatever deadline ctx
// already carries.
func (h *HTTP) Health(ctx context.Context) (Health, error) {
	ctx, cancel := context.WithTimeout(ctx, h.healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return Health{}, fmt.Errorf("shard: %s: healthz: %w", h.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Health{}, fmt.Errorf("shard: %s: healthz: status %d", h.base, resp.StatusCode)
	}
	var out struct {
		Capacity      int    `json:"capacity"`
		Running       int    `json:"running"`
		Scale         int64  `json:"scale"`
		Seed          uint64 `json:"seed"`
		SchemaVersion int    `json:"schema_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return Health{}, fmt.Errorf("shard: %s: healthz: %w", h.base, err)
	}
	return Health{
		Capacity:      out.Capacity,
		Running:       out.Running,
		Scale:         out.Scale,
		Seed:          out.Seed,
		SchemaVersion: out.SchemaVersion,
	}, nil
}

// Run implements Backend with one request: a one-shot submission
// (POST /v1/plans?stream=1) of the job's cells pinned to the job's seed
// and scale, whose response is the plan's acknowledgement followed by its
// results stream. The daemon ties the plan to the request, so returning
// early — a meta mismatch, a torn stream, ctx cancellation — hangs up and
// thereby cancels and evicts the remote plan.
func (h *HTTP) Run(ctx context.Context, job Job) (*vexsmt.ResultSet, error) {
	submit := struct {
		Cells []vexsmt.CellSpec `json:"cells"`
		Scale int64             `json:"scale"`
		Seed  uint64            `json:"seed"`
		Cache string            `json:"cache,omitempty"`
	}{Cells: job.Cells, Scale: job.Scale, Seed: job.Seed}
	if job.CacheOff {
		submit.Cache = "off"
	}
	body, err := json.Marshal(submit)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/plans?stream=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: submit: %w", h.base, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusAccepted:
		// A daemon without one-shot submission ignored stream=1 and queued
		// the plan asynchronously; its retention policy ages the orphan out
		// once it finishes. Retryable: another backend may be current.
		return nil, fmt.Errorf("shard: %s: submit: daemon answered 202 Accepted, not a one-shot results stream; it predates POST /v1/plans?stream=1 and needs upgrading", h.base)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("shard: %s: submit: status %d: %s",
			h.base, resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	sc := newLineScanner(resp.Body)
	var ack struct {
		ID   string         `json:"id"`
		Meta vexsmt.RunMeta `json:"meta"`
	}
	if err := decodeAck(sc, &ack); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("shard: %s: submit response: %w", h.base, err)
	}
	// Guard against a daemon that ignored the overrides or disagrees about
	// the grid: running a job at a foreign seed, scale or technique set
	// would only be caught downstream after wasted simulation.
	if ack.Meta.SchemaVersion != vexsmt.SchemaVersion ||
		ack.Meta.Seed != job.Seed || ack.Meta.Scale != job.Scale ||
		(job.Techniques != "" && ack.Meta.Techniques != job.Techniques) {
		return nil, fmt.Errorf("shard: %s: daemon accepted plan %s with meta %+v; job wants schema v%d seed %d scale 1/%d techniques %q",
			h.base, ack.ID, ack.Meta, vexsmt.SchemaVersion, job.Seed, job.Scale, job.Techniques)
	}

	rs := &vexsmt.ResultSet{Meta: ack.Meta}
	status, jobErr, err := decodeResults(sc, func(cell vexsmt.CellResult) {
		if cell.Err != "" {
			return // the terminal status line will carry the failure
		}
		rs.Cells = append(rs.Cells, cell)
		if job.Progress != nil {
			job.Progress(cell)
		}
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr // the hang-up cancels the remote plan
	}
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", h.base, err)
	}
	switch status {
	case "done":
	case "":
		return nil, fmt.Errorf("shard: %s: stream ended without terminal status (daemon died?)", h.base)
	case "failed":
		// A failed plan is a deterministic simulation failure (cell seeds
		// travel with the cells); rerunning it elsewhere reproduces it.
		return nil, sched.Permanent(fmt.Errorf("shard: %s: plan failed: %s", h.base, jobErr))
	default:
		return nil, fmt.Errorf("shard: %s: plan %s: %s", h.base, status, jobErr)
	}
	rs.Sort()
	return rs, nil
}
