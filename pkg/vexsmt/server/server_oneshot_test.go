package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
)

// postOneShot submits body as a one-shot plan (POST /v1/plans?stream=1)
// under ctx and returns the response, open for streaming.
func postOneShot(t *testing.T, ctx context.Context, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plans?stream=1", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// oneShotAck reads and checks the acknowledgement line that opens a
// one-shot stream.
func oneShotAck(t *testing.T, sc *bufio.Scanner) (id string, cells int) {
	t.Helper()
	if !sc.Scan() {
		t.Fatalf("stream ended before the acknowledgement line: %v", sc.Err())
	}
	var ack struct {
		ID    string         `json:"id"`
		Cells int            `json:"cells"`
		Meta  vexsmt.RunMeta `json:"meta"`
	}
	if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
		t.Fatalf("bad acknowledgement line %q: %v", sc.Text(), err)
	}
	if ack.ID == "" || ack.Meta.SchemaVersion != vexsmt.SchemaVersion {
		t.Fatalf("acknowledgement %+v: want an id and schema v%d meta", ack, vexsmt.SchemaVersion)
	}
	return ack.ID, ack.Cells
}

// listedPlans returns the ids GET /v1/plans lists.
func listedPlans(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Plans []struct {
			ID string `json:"id"`
		} `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(out.Plans))
	for i, p := range out.Plans {
		ids[i] = p.ID
	}
	return ids
}

// TestOneShotStreamsAckCellsStatus: a one-shot submission answers 200
// with the acknowledgement, every cell and the terminal status in one
// NDJSON body, and the plan is gone once the request is.
func TestOneShotStreamsAckCellsStatus(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	resp := postOneShot(t, context.Background(), ts, `{"cells":[
		{"mix":"llll","technique":"SMT","threads":2},
		{"mix":"mmmm","technique":"SMT","threads":2}]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot submit: status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	id, total := oneShotAck(t, sc)
	if total != 2 {
		t.Fatalf("acknowledged %d cells, want 2", total)
	}
	var cells int
	var status string
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if s, ok := line["status"].(string); ok {
			status = s
			break
		}
		cells++
	}
	if cells != 2 || status != "done" {
		t.Fatalf("streamed %d cells, final status %q; want 2/done", cells, status)
	}
	io.Copy(io.Discard, resp.Body) // the handler returns, evicting the plan

	deadline := time.Now().Add(10 * time.Second)
	for len(listedPlans(t, ts)) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("plan %s still listed after its one-shot request ended", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOneShotAdmissionMatchesAsync: the one-shot path validates and
// admits exactly like the asynchronous one — 400 for bad plans, 503 with
// Retry-After at capacity.
func TestOneShotAdmissionMatchesAsync(t *testing.T) {
	ts := httptest.NewServer(New(50, 1, 1).Handler()) // slow cells
	defer ts.Close()

	for _, body := range []string{
		`{"figures":["nonsense"]}`,
		`{"cells":[{"mix":"zzzz","technique":"SMT","threads":2}]}`,
		`{"scale":0}`,
		`{"cache":"sometimes"}`,
		`not json`,
	} {
		resp := postOneShot(t, context.Background(), ts, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("one-shot body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	ids := make([]string, 0, maxRunningJobs)
	for i := 0; i < maxRunningJobs; i++ {
		ids = append(ids, postPlan(t, ts, `{"figures":["14"]}`))
	}
	defer func() {
		for _, id := range ids {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans?id="+id, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}()
	resp := postOneShot(t, context.Background(), ts, `{"figures":["14"]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("one-shot over the cap: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("one-shot admission shedding without a Retry-After hint")
	}
}

// TestOneShotDisconnectCancelsAndEvicts: a client that hangs up mid-plan
// leaves nothing behind — no running weight on /healthz and no retained
// job in GET /v1/plans — without ever sending a DELETE.
func TestOneShotDisconnectCancelsAndEvicts(t *testing.T) {
	ts := httptest.NewServer(New(50, 1, 2).Handler()) // 4M instrs per cell: still running at the hang-up
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := postOneShot(t, ctx, ts, `{"figures":["14"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot submit: status %d, want 200", resp.StatusCode)
	}
	id, _ := oneShotAck(t, bufio.NewScanner(resp.Body))
	if got := listedPlans(t, ts); len(got) != 1 || got[0] != id {
		t.Fatalf("plans during the stream = %v, want [%s]", got, id)
	}
	if h := getHealthz(t, ts); h.Running == 0 {
		t.Fatal("healthz reports nothing running during the one-shot plan")
	}

	cancel() // the client disconnects mid-plan
	deadline := time.Now().Add(10 * time.Second)
	for {
		plans, running := listedPlans(t, ts), getHealthz(t, ts).Running
		if len(plans) == 0 && running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("10s after the hang-up: plans %v, running %d; want none", plans, running)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
