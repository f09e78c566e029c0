package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt/cache"
)

// TestGracefulShutdownDrainsStreamsAndPrefetch exercises the vexsmtd
// shutdown sequence against a server with a running plan, an attached
// NDJSON stream, and a background prefetch in flight: the Shutdown +
// CancelJobs drain loop must end the stream with a terminal status line
// (not a dropped connection), finish within the drain budget, and leave
// no server goroutines behind.
func TestGracefulShutdownDrainsStreamsAndPrefetch(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Scale 500 makes cells slow enough (vs the usual test scale 20000)
	// that the plan and prefetch are still running at shutdown.
	srv := New(500, 1, 2, WithCache(cache.NewMemory(0)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan struct{})
	go func() { hs.Serve(ln); close(serveDone) }()
	base := "http://" + ln.Addr().String()
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	resp, err := client.Post(base+"/v1/plans", "application/json",
		strings.NewReader(`{"figures":["14"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var plan struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || plan.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, plan.ID)
	}

	pf, err := client.Post(base+"/v1/prefetch", "application/json",
		strings.NewReader(`{"cells":[{"mix":"llll","technique":"SMT","threads":4},{"mix":"hhhh","technique":"SMT","threads":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if pf.StatusCode != http.StatusAccepted {
		var msg strings.Builder
		io.Copy(&msg, pf.Body)
		pf.Body.Close()
		t.Fatalf("prefetch: status %d: %s", pf.StatusCode, msg.String())
	}
	pf.Body.Close()

	// Attach the stream; Get returns once streamResults has pushed
	// headers, so the watcher is wired up before shutdown begins.
	stream, err := client.Get(base + "/v1/results?id=" + plan.ID + "&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	type streamEnd struct {
		last map[string]any
		err  error
	}
	endc := make(chan streamEnd, 1)
	go func() {
		var last map[string]any
		sc := bufio.NewScanner(stream.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var line map[string]any
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				endc <- streamEnd{nil, err}
				return
			}
			last = line
		}
		endc <- streamEnd{last, sc.Err()}
	}()

	// The vexsmtd drain: Shutdown stops intake and waits for in-flight
	// requests, while CancelJobs runs repeatedly so the NDJSON stream —
	// which only ends at a terminal job state — can drain.
	shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- hs.Shutdown(shctx) }()
	var drainErr error
	for draining := true; draining; {
		srv.CancelJobs()
		select {
		case drainErr = <-done:
			draining = false
		case <-time.After(50 * time.Millisecond):
		}
	}
	srv.CancelJobs()
	if drainErr != nil {
		t.Fatalf("drain did not complete: %v", drainErr)
	}

	var end streamEnd
	select {
	case end = <-endc:
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open after the drain completed")
	}
	if end.err != nil {
		t.Fatalf("stream ended with a transport error, not a status line: %v", end.err)
	}
	if end.last == nil {
		t.Fatal("stream closed without emitting anything")
	}
	status, _ := end.last["status"].(string)
	if status != "cancelled" && status != "done" {
		t.Fatalf("terminal stream line = %v; want a cancelled/done status object", end.last)
	}
	if _, hasCells := end.last["cells"]; !hasCells {
		t.Fatalf("last stream line %v is not the terminal status object", end.last)
	}

	<-serveDone
	stream.Body.Close()
	tr.CloseIdleConnections()
	// Server goroutines (job consumers, prefetch workers, handlers) must
	// all have unwound; allow a little settling and client-side slack.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d at start, %d after shutdown\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCancelJobsEndsOneShotStream: CancelJobs during a one-shot stream
// ends it with a terminal "cancelled" status line, not a dropped
// connection, and the plan is evicted with its request.
func TestCancelJobsEndsOneShotStream(t *testing.T) {
	srv := New(50, 1, 2) // slow cells: the plan is still running at the cancel
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postOneShot(t, context.Background(), ts, `{"figures":["14"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot submit: status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	oneShotAck(t, sc)

	srv.CancelJobs()
	var last map[string]any
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, ok := last["status"]; ok {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream ended with a transport error, not a status line: %v", err)
	}
	if status, _ := last["status"].(string); status != "cancelled" {
		t.Fatalf("terminal line %v, want status cancelled", last)
	}
	io.Copy(io.Discard, resp.Body)
	deadline := time.Now().Add(10 * time.Second)
	for len(listedPlans(t, ts)) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled one-shot plan still retained after its request ended")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
