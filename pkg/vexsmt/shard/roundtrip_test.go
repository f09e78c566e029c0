package shard_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/server"
	"vexsmt/pkg/vexsmt/shard"
)

// countingTransport tallies the requests it forwards by method, path
// and whether they ask for a stream.
type countingTransport struct {
	next http.RoundTripper
	mu   sync.Mutex
	n    map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.Method + " " + req.URL.Path
	if req.URL.Query().Get("stream") != "" {
		key += "?stream=1"
	}
	c.mu.Lock()
	c.n[key]++
	c.mu.Unlock()
	return c.next.RoundTrip(req)
}

func (c *countingTransport) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = map[string]int{}
	return n
}

// TestWarmSweepIsOneRequestPerCell pins the remote cell's cost: a warm
// coordinated sweep of the Figures 14–16 grid sends exactly one one-shot
// POST /v1/plans?stream=1 per cell besides the /healthz probes — no
// /v1/results follow-up and no DELETE — and still merges to the bytes of
// a single-process Service.Collect.
func TestWarmSweepIsOneRequestPerCell(t *testing.T) {
	const httpScale = 50000 // every cold cell is a fresh daemon-side service
	want := collectBaseline(t, testServiceAt(t, httpScale), fullGrid)
	ts := httptest.NewServer(server.New(httpScale, 1, 4, server.WithCache(cache.NewMemory(0))).Handler())
	defer ts.Close()
	ct := &countingTransport{next: http.DefaultTransport, n: map[string]int{}}
	b, err := shard.NewHTTP(ts.URL, shard.WithClient(&http.Client{Transport: ct}))
	if err != nil {
		t.Fatal(err)
	}
	var last shard.Progress
	coord, err := shard.New(shard.Config{
		Scale:      httpScale,
		Seed:       1,
		OnProgress: func(p shard.Progress) { last = p },
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(name string) *vexsmt.ResultSet {
		rs, err := coord.Collect(context.Background(), fullGrid)
		if err != nil {
			t.Fatalf("%s sweep: %v", name, err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatalf("%s sweep differs from Service.Collect", name)
		}
		return rs
	}
	sweep("cold") // fills the daemon's cache
	ct.take()

	rs := sweep("warm")
	if last.CacheHits != len(rs.Cells) || last.Retries != 0 {
		t.Fatalf("warm sweep progress %+v, want every cell a hit and no retries", last)
	}
	got := ct.take()
	if n := got["POST /v1/plans?stream=1"]; n != len(rs.Cells) {
		t.Fatalf("%d one-shot submissions for %d cells; requests %v", n, len(rs.Cells), got)
	}
	for key, n := range got {
		if key != "POST /v1/plans?stream=1" && key != "GET /healthz" {
			t.Fatalf("%d unexpected %s requests in a warm sweep; requests %v", n, key, got)
		}
	}
}

// TestHTTPRunMultiCellJobProgress: one one-shot submission may carry
// several cells; each completed cell reaches Job.Progress and the sorted
// ResultSet holds them all.
func TestHTTPRunMultiCellJobProgress(t *testing.T) {
	svc := testService(t)
	cells, err := svc.PlanCells(vexsmt.Plan{Cells: []vexsmt.CellSpec{
		{Mix: "llll", Technique: "SMT", Threads: 2},
		{Mix: "mmmm", Technique: "CSMT", Threads: 2},
		{Mix: "hhhh", Technique: "SMT", Threads: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(testScale, 1, 2).Handler())
	defer ts.Close()
	b, err := shard.NewHTTP(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var progressed int
	rs, err := b.Run(context.Background(), shard.Job{
		Cells: cells, Scale: testScale, Seed: 1,
		Progress: func(vexsmt.CellResult) { progressed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if progressed != len(cells) || len(rs.Cells) != len(cells) {
		t.Fatalf("progress %d, result cells %d; want %d each", progressed, len(rs.Cells), len(cells))
	}
}
