package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/sched"
	"vexsmt/pkg/vexsmt/shard"
)

// fakeDaemon serves just enough of the vexsmtd /v1 protocol for an HTTP
// backend to run a job: a one-shot submission (POST /v1/plans?stream=1)
// answered with the acknowledgement line and then whatever body the test
// scripts, so torn and terminal-less streams are easy to stage. Requests
// outside the one-shot protocol are counted in *stray and refused.
func fakeDaemon(t *testing.T, stray *atomic.Int64, stream func(w http.ResponseWriter)) *httptest.Server {
	t.Helper()
	meta := vexsmt.RunMeta{SchemaVersion: vexsmt.SchemaVersion, Seed: 1, Scale: testScale}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/plans" || r.URL.Query().Get("stream") == "" {
			stray.Add(1)
			http.Error(w, "not the one-shot protocol", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(map[string]any{"id": "p1", "cells": 1, "meta": meta})
		stream(w)
	}))
}

// oneCellJob is a single-cell job at the fake daemon's seed and scale.
var oneCellJob = shard.Job{
	Cells: []vexsmt.CellSpec{{Mix: "mmhh", Technique: "SMT", Threads: 2}},
	Scale: testScale,
	Seed:  1,
}

// TestHTTPRunTornStreamIsRetryable: a daemon that dies mid-stream —
// whether between NDJSON records or halfway through one — must surface a
// retryable error from Run, never a silent partial ResultSet and never a
// Permanent marker (the failure is the daemon's, so the scheduler must be
// free to rerun the cell elsewhere instead of losing it). The error must
// name the mid-stream failure itself, so the fake is known to have been
// spoken to over the one-shot protocol.
func TestHTTPRunTornStreamIsRetryable(t *testing.T) {
	cell := `{"mix":"mmhh","technique":"SMT","threads":2,"seed":7,"ipc":1.5}` + "\n"
	for name, tc := range map[string]struct {
		stream func(w http.ResponseWriter)
		want   string
	}{
		"dies-between-records": {
			stream: func(w http.ResponseWriter) {
				fmt.Fprint(w, cell) // complete record, then EOF with no terminal line
			},
			want: "without terminal status",
		},
		"dies-mid-record": {
			stream: func(w http.ResponseWriter) {
				fmt.Fprint(w, cell+`{"mix":"llll","techni`) // record torn mid-JSON
			},
			want: "bad stream line",
		},
	} {
		t.Run(name, func(t *testing.T) {
			var stray atomic.Int64
			ts := fakeDaemon(t, &stray, tc.stream)
			defer ts.Close()
			b, err := shard.NewHTTP(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := b.Run(context.Background(), oneCellJob)
			if err == nil {
				t.Fatalf("torn stream returned a ResultSet with %d cells", len(rs.Cells))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not report the mid-stream failure (%q)", err, tc.want)
			}
			if sched.IsPermanent(err) {
				t.Fatalf("torn stream marked Permanent — the coordinator would not retry: %v", err)
			}
			if n := stray.Load(); n != 0 {
				t.Fatalf("%d requests outside the one-shot submission", n)
			}
		})
	}
}

// TestHTTPRunOldDaemonIsRetryable: a daemon that predates one-shot
// submission answers 202 and queues the plan asynchronously. Run must
// fail promptly with a retryable error that says so, not wait on a body
// that never becomes a results stream.
func TestHTTPRunOldDaemonIsRetryable(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	meta := vexsmt.RunMeta{SchemaVersion: vexsmt.SchemaVersion, Seed: 1, Scale: testScale}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": "plan-1", "cells": 1, "meta": meta})
		w.(http.Flusher).Flush()
		// Hold the body open: a client waiting for stream lines would hang.
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	b, err := shard.NewHTTP(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = b.Run(ctx, oneCellJob)
	if err == nil {
		t.Fatal("202 answer accepted as a results stream")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run hung on a 202 answer: %v", err)
	}
	if !strings.Contains(err.Error(), "202") {
		t.Fatalf("error %q does not say the daemon answered 202", err)
	}
	if sched.IsPermanent(err) {
		t.Fatalf("old-daemon answer marked Permanent: %v", err)
	}
}

// TestWithHealthTimeout: a daemon whose /healthz hangs must fail the
// probe within the configured timeout instead of holding up placement.
func TestWithHealthTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	b, err := shard.NewHTTP(ts.URL, shard.WithHealthTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := b.Health(context.Background()); err == nil {
		t.Fatal("hanging healthz probe reported healthy")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("probe took %v, want ~50ms", elapsed)
	}
}

// fnSource adapts a function to shard.Source.
type fnSource func(ctx context.Context) ([]shard.Backend, error)

func (f fnSource) Backends(ctx context.Context) ([]shard.Backend, error) { return f(ctx) }

// TestCoordinatorResolvesSourcePerCollect: a Source-backed coordinator
// re-reads membership at every run, so backends that join between sweeps
// are used without rebuilding the coordinator — the property the fleet
// registry depends on.
func TestCoordinatorResolvesSourcePerCollect(t *testing.T) {
	svc := testService(t)
	plan := vexsmt.Plan{Figures: []string{"14"}}
	want := collectBaseline(t, svc, plan)

	var resolves atomic.Int64
	members := []shard.Backend{shard.NewLocal("a", svc)}
	src := fnSource(func(context.Context) ([]shard.Backend, error) {
		resolves.Add(1)
		return append([]shard.Backend(nil), members...), nil
	})
	c, err := shard.NewFromSource(shard.Config{Scale: testScale, Seed: 1}, src)
	if err != nil {
		t.Fatal(err)
	}

	for sweep := 0; sweep < 2; sweep++ {
		rs, err := c.Collect(context.Background(), plan)
		if err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatalf("sweep %d diverged from single-process baseline", sweep)
		}
		// A member joins between sweeps; the next Collect must see it.
		members = append(members, shard.NewLocal(fmt.Sprintf("b%d", sweep), svc))
	}
	if n := resolves.Load(); n != 2 {
		t.Fatalf("source resolved %d times for 2 sweeps, want 2", n)
	}
}

// TestSourceFailuresSurface: a nil source is a construction error; an
// erroring or empty source fails the run up front.
func TestSourceFailuresSurface(t *testing.T) {
	if _, err := shard.NewFromSource(shard.Config{}, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	plan := vexsmt.Plan{Figures: []string{"14"}}
	for name, src := range map[string]shard.Source{
		"erroring": fnSource(func(context.Context) ([]shard.Backend, error) {
			return nil, fmt.Errorf("registry unreachable")
		}),
		"empty": fnSource(func(context.Context) ([]shard.Backend, error) {
			return nil, nil
		}),
	} {
		t.Run(name, func(t *testing.T) {
			c, err := shard.NewFromSource(shard.Config{Scale: testScale, Seed: 1}, src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Collect(context.Background(), plan); err == nil {
				t.Fatal("collect succeeded with no backends")
			} else if !strings.Contains(err.Error(), "backend") {
				t.Fatalf("unhelpful error: %v", err)
			}
		})
	}
}

// TestHTTPRunChecksMetaBeforeCells: a daemon that acknowledges the plan
// under a foreign seed is refused on the acknowledgement line, before any
// cell reaches the job's Progress hook.
func TestHTTPRunChecksMetaBeforeCells(t *testing.T) {
	var stray atomic.Int64
	ts := fakeDaemon(t, &stray, func(w http.ResponseWriter) {
		fmt.Fprint(w, `{"mix":"mmhh","technique":"SMT","threads":2,"seed":7,"ipc":1.5}`+"\n")
		fmt.Fprint(w, `{"status":"done","error":"","completed":1,"cells":1}`+"\n")
	})
	defer ts.Close()
	b, err := shard.NewHTTP(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	job := oneCellJob
	job.Seed = 2 // the fake acknowledges seed 1
	var delivered int
	job.Progress = func(vexsmt.CellResult) { delivered++ }
	if _, err := b.Run(context.Background(), job); err == nil || !strings.Contains(err.Error(), "meta") {
		t.Fatalf("foreign-seed acknowledgement: err %v, want a meta mismatch", err)
	}
	if delivered != 0 {
		t.Fatalf("%d cells delivered under a foreign meta", delivered)
	}
}

// TestHTTPRunFailedPlanIsPermanent: a terminal "failed" line is a
// deterministic simulation failure every backend would reproduce, so Run
// marks it Permanent and the scheduler does not retry it.
func TestHTTPRunFailedPlanIsPermanent(t *testing.T) {
	var stray atomic.Int64
	ts := fakeDaemon(t, &stray, func(w http.ResponseWriter) {
		fmt.Fprint(w, `{"mix":"mmhh","technique":"SMT","threads":2,"error":"boom"}`+"\n")
		fmt.Fprint(w, `{"status":"failed","error":"mmhh/SMT/2T: boom","completed":1,"cells":1}`+"\n")
	})
	defer ts.Close()
	b, err := shard.NewHTTP(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Run(context.Background(), oneCellJob)
	if !sched.IsPermanent(err) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("failed plan: err %v, want a Permanent error carrying the cell failure", err)
	}
}
