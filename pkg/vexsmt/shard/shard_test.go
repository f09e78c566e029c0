package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/server"
	"vexsmt/pkg/vexsmt/shard"
)

// testScale keeps simulation-backed tests fast; every assertion is
// structural or bit-identity, never statistical.
const testScale = 20000

// fullGrid is the complete figure grid: every technique, mix and machine
// size the paper's Figures 14–16 evaluate.
var fullGrid = vexsmt.Plan{Figures: []string{"14", "15", "16"}}

func testService(t *testing.T) *vexsmt.Service { return testServiceAt(t, testScale) }

func testServiceAt(t *testing.T, scale int64, opts ...vexsmt.Option) *vexsmt.Service {
	t.Helper()
	svc, err := vexsmt.New(append([]vexsmt.Option{vexsmt.WithScale(scale)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// encodeCanonical returns rs's canonical encoding without mutating it.
func encodeCanonical(t *testing.T, rs *vexsmt.ResultSet) string {
	t.Helper()
	cp := &vexsmt.ResultSet{Meta: rs.Meta, Cells: append([]vexsmt.CellResult(nil), rs.Cells...)}
	cp.Canonicalize()
	var buf bytes.Buffer
	if err := vexsmt.EncodeResults(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func collectBaseline(t *testing.T, svc *vexsmt.Service, plan vexsmt.Plan) string {
	t.Helper()
	rs, err := svc.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return encodeCanonical(t, rs)
}

// TestCoordinatorMatchesCollectLocal is the in-process half of the
// cell-scheduling determinism property: for several backend counts, a
// coordinated run over in-process backends is bit-identical to a single
// Service.Collect of the full figure grid. All backends wrap the baseline
// service, so the whole test simulates the grid exactly once.
func TestCoordinatorMatchesCollectLocal(t *testing.T) {
	svc := testService(t)
	want := collectBaseline(t, svc, fullGrid)
	for _, k := range []int{1, 2, 3} {
		var backends []shard.Backend
		for i := 0; i < k; i++ {
			backends = append(backends, shard.NewLocal("local-"+string(rune('a'+i)), svc))
		}
		var last shard.Progress
		coord, err := shard.New(shard.Config{
			Scale:      testScale,
			Seed:       svc.Seed(),
			OnProgress: func(p shard.Progress) { last = p },
		}, backends...)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := coord.Collect(context.Background(), fullGrid)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatalf("k=%d: coordinated result differs from Service.Collect", k)
		}
		if last.CellsDone != last.CellsTotal || last.Retries != 0 {
			t.Fatalf("k=%d: final progress %+v", k, last)
		}
	}
}

// TestCoordinatorMatchesCollectHTTP is the remote half of the property:
// the same grid coordinated cell-by-cell across two real vexsmtd servers
// (httptest) over the /v1 plan/results protocol stays bit-identical to
// the single-process run.
func TestCoordinatorMatchesCollectHTTP(t *testing.T) {
	// Every cell is a fresh daemon-side service (no cross-plan
	// memoization), so this test runs at a finer scale than the in-process
	// one to stay cheap.
	const httpScale = 50000
	want := collectBaseline(t, testServiceAt(t, httpScale), fullGrid)
	a := httptest.NewServer(server.New(httpScale, 1, 4).Handler())
	defer a.Close()
	b := httptest.NewServer(server.New(httpScale, 1, 4).Handler())
	defer b.Close()
	var last shard.Progress
	coord, err := shard.New(shard.Config{
		Scale:      httpScale,
		Seed:       1,
		OnProgress: func(p shard.Progress) { last = p },
	}, httpBackends(t, a.URL, b.URL)...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), fullGrid)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("coordinated HTTP result differs from Service.Collect")
	}
	if last.CellsDone != 144 || last.CellsTotal != 144 {
		t.Fatalf("final progress %+v", last)
	}
}

func httpBackends(t *testing.T, urls ...string) []shard.Backend {
	t.Helper()
	out := make([]shard.Backend, len(urls))
	for i, u := range urls {
		b, err := shard.NewHTTP(u)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// failFirst wraps a backend and fails its first n Runs with a transient
// error, simulating a machine that dies and is failed over.
type failFirst struct {
	shard.Backend
	n       int64
	tripped atomic.Int64
}

func (f *failFirst) Run(ctx context.Context, job shard.Job) (*vexsmt.ResultSet, error) {
	if f.tripped.Add(1) <= f.n {
		return nil, errors.New("injected backend death")
	}
	return f.Backend.Run(ctx, job)
}

// TestCoordinatorFailoverLocal: cells whose backend dies are retried on
// the surviving backend and the output is still bit-identical; the
// retries are visible in the progress feed.
func TestCoordinatorFailoverLocal(t *testing.T) {
	svc := testService(t)
	want := collectBaseline(t, svc, fullGrid)
	flaky := &failFirst{Backend: shard.NewLocal("flaky", svc), n: 2}
	var last shard.Progress
	coord, err := shard.New(shard.Config{
		Scale:      testScale,
		Seed:       svc.Seed(),
		OnProgress: func(p shard.Progress) { last = p },
	}, flaky, shard.NewLocal("steady", svc))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), fullGrid)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("failover result differs from Service.Collect")
	}
	if flaky.tripped.Load() == 0 {
		t.Fatal("flaky backend was never used — failover untested")
	}
	if last.Retries < 1 {
		t.Fatalf("no retry recorded: %+v", last)
	}
	if last.CellsDone != last.CellsTotal {
		t.Fatalf("progress double-counted or lost cells across retries: %+v", last)
	}
}

// TestCoordinatorFailoverHTTP kills the first two cell submissions on one
// daemon and expects the coordinator to rerun those cells on the
// surviving daemon with no effect on the merged bits — the paper-grid
// equivalent of losing a machine mid-sweep.
func TestCoordinatorFailoverHTTP(t *testing.T) {
	plan := vexsmt.Plan{Figures: []string{"14"}}
	want := collectBaseline(t, testService(t), plan)
	a := httptest.NewServer(server.New(testScale, 1, 2).Handler())
	defer a.Close()
	b := httptest.NewServer(server.New(testScale, 1, 2).Handler())
	defer b.Close()
	backends := httpBackends(t, a.URL, b.URL)
	flaky := &failFirst{Backend: backends[0], n: 2}
	coord, err := shard.New(shard.Config{
		Scale: testScale,
		Seed:  1,
	}, flaky, backends[1])
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("mid-run failover result differs from Service.Collect")
	}
	if flaky.tripped.Load() == 0 {
		t.Fatal("flaky backend was never used — failover untested")
	}
}

// TestWorkStealingDrainsStragglerBackend: one backend is an order of
// magnitude slower per cell; the fast backend must steal most of the
// slow one's queue and the output stays bit-identical.
func TestWorkStealingDrainsStragglerBackend(t *testing.T) {
	svc := testService(t)
	want := collectBaseline(t, svc, fullGrid)
	slow := &slowBackend{Backend: shard.NewLocal("slow", svc), delay: 20 * time.Millisecond}
	var last shard.Progress
	coord, err := shard.New(shard.Config{
		Scale:      testScale,
		Seed:       svc.Seed(),
		OnProgress: func(p shard.Progress) { last = p },
	}, slow, shard.NewLocal("fast", svc))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), fullGrid)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("stolen cells changed the result bits")
	}
	if last.Stolen == 0 {
		t.Fatalf("no cells were stolen from the straggler: %+v", last)
	}
	if n := slow.ran.Load(); n >= 144 {
		t.Fatalf("slow backend ran all %d cells — stealing is inert", n)
	}
}

type slowBackend struct {
	shard.Backend
	delay time.Duration
	ran   atomic.Int64
}

func (s *slowBackend) Run(ctx context.Context, job shard.Job) (*vexsmt.ResultSet, error) {
	s.ran.Add(1)
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Backend.Run(ctx, job)
}

// runningPlans reports how many plans a vexsmtd lists as running.
func runningPlans(t *testing.T, baseURL string) int {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Running int `json:"running"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Running
}

// TestCoordinatorCancellationReachesDaemons: cancelling a coordinated run
// must reach the daemons — each in-flight one-shot submission hangs up,
// and the daemon cancels and evicts the plan tied to it — so their
// running-plan counts drain to zero promptly instead of simulating to
// completion.
func TestCoordinatorCancellationReachesDaemons(t *testing.T) {
	const slowScale = 50 // 4M instrs per cell: the grid cannot finish before the cancel lands
	a := httptest.NewServer(server.New(slowScale, 1, 2).Handler())
	defer a.Close()
	b := httptest.NewServer(server.New(slowScale, 1, 2).Handler())
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	coord, err := shard.New(shard.Config{
		Scale: slowScale,
		Seed:  1,
	}, httpBackends(t, a.URL, b.URL)...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := coord.Collect(ctx, fullGrid)
		done <- err
	}()
	// Cancel as soon as the daemons report cells running — no cell needs
	// to complete first.
	deadlineUp := time.Now().Add(30 * time.Second)
	for runningPlans(t, a.URL)+runningPlans(t, b.URL) < 2 {
		if time.Now().After(deadlineUp) {
			t.Fatal("cells not running on the daemons within 30s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Collect after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Collect did not return within 20s of cancellation")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runningPlans(t, a.URL)+runningPlans(t, b.URL) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("daemons still report running plans 10s after cancel (a=%d b=%d)",
				runningPlans(t, a.URL), runningPlans(t, b.URL))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPlacementSkipsUnhealthyBackend: a daemon whose /healthz fails never
// receives a cell; the healthy one absorbs the whole grid.
func TestPlacementSkipsUnhealthyBackend(t *testing.T) {
	plan := vexsmt.Plan{Figures: []string{"14"}}
	want := collectBaseline(t, testService(t), plan)
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "sick", http.StatusServiceUnavailable)
	}))
	defer sick.Close()
	healthy := httptest.NewServer(server.New(testScale, 1, 2).Handler())
	defer healthy.Close()
	coord, err := shard.New(shard.Config{
		Scale: testScale,
		Seed:  1,
	}, httpBackends(t, sick.URL, healthy.URL)...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("result with an unhealthy backend differs from Service.Collect")
	}
}

// wrongCellBackend answers every one-cell job with a fixed foreign cell.
type wrongCellBackend struct {
	shard.Backend
}

func (w *wrongCellBackend) Run(ctx context.Context, job shard.Job) (*vexsmt.ResultSet, error) {
	rs, err := w.Backend.Run(ctx, job)
	if err != nil {
		return nil, err
	}
	for i := range rs.Cells {
		rs.Cells[i].Mix = "hhhh" // lie about the identity
	}
	return rs, nil
}

// TestCoordinatorRejectsWrongCellIdentity: a backend answering a one-cell
// job with a different cell must not slip into the result set as a
// silent duplicate-plus-gap (the guarantee the old merge's conflict
// detection provided).
func TestCoordinatorRejectsWrongCellIdentity(t *testing.T) {
	svc := testService(t)
	liar := &wrongCellBackend{Backend: shard.NewLocal("liar", svc)}
	coord, err := shard.New(shard.Config{
		Scale:   testScale,
		Seed:    svc.Seed(),
		Retries: -1, // every attempt lies; fail fast
	}, liar)
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Collect(context.Background(), vexsmt.Plan{Cells: []vexsmt.CellSpec{
		{Mix: "llll", Technique: "SMT", Threads: 2},
	}})
	if err == nil {
		t.Fatal("wrong-identity cell accepted")
	}
}

// TestLocalBackendRejectsForeignJob: a Local backend must refuse to run a
// job at a seed/scale its immutable service was not built for.
func TestLocalBackendRejectsForeignJob(t *testing.T) {
	svc := testService(t)
	l := shard.NewLocal("local", svc)
	cells, err := svc.PlanCells(vexsmt.Plan{Cells: []vexsmt.CellSpec{
		{Mix: "llll", Technique: "SMT", Threads: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Run(context.Background(), shard.Job{Cells: cells, Scale: testScale, Seed: 99}); err == nil {
		t.Fatal("foreign seed accepted")
	}
	if _, err := l.Run(context.Background(), shard.Job{Cells: cells, Scale: 1, Seed: svc.Seed()}); err == nil {
		t.Fatal("foreign scale accepted")
	}
}

// TestCoordinatorPredictorSweepMatchesCollect is the distributed half of
// the predictor-axis property: a static-vs-bimodal sweep of Figure 14
// coordinated over in-process and real HTTP backends must merge to
// exactly the bytes a single-process Collect of the same plan produces —
// the predictor axis adds cells, never nondeterminism.
func TestCoordinatorPredictorSweepMatchesCollect(t *testing.T) {
	sweep := vexsmt.Plan{Figures: []string{"14"}, Predictors: []string{"static", "bimodal"}}
	svc := testService(t)
	want := collectBaseline(t, svc, sweep)

	t.Run("local", func(t *testing.T) {
		coord, err := shard.New(shard.Config{Scale: testScale, Seed: svc.Seed()},
			shard.NewLocal("a", svc), shard.NewLocal("b", svc))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := coord.Collect(context.Background(), sweep)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatal("coordinated predictor sweep differs from Service.Collect")
		}
		// Both models actually ran: half the cells carry the modeled name.
		var modeled int
		for _, c := range rs.Cells {
			if c.Predictor == "bimodal" {
				modeled++
			}
		}
		if modeled == 0 || modeled != len(rs.Cells)/2 {
			t.Fatalf("%d of %d cells are bimodal, want an even split", modeled, len(rs.Cells))
		}
	})

	t.Run("http", func(t *testing.T) {
		a := httptest.NewServer(server.New(testScale, 1, 4).Handler())
		defer a.Close()
		b := httptest.NewServer(server.New(testScale, 1, 4).Handler())
		defer b.Close()
		coord, err := shard.New(shard.Config{Scale: testScale, Seed: 1},
			httpBackends(t, a.URL, b.URL)...)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := coord.Collect(context.Background(), sweep)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatal("two-daemon predictor sweep differs from Service.Collect")
		}
	})
}

// TestWarmCacheCoordinatedCollect is the distributed half of the cache
// property (the single-process half lives in pkg/vexsmt): over K ∈ {1,3}
// backends sharing one on-disk cache directory, a warm coordinated
// Collect of the full figure grid is byte-identical to the cold run and
// to the uncached single-process baseline, performs zero simulator runs,
// and reports every cell as a cache hit.
func TestWarmCacheCoordinatedCollect(t *testing.T) {
	baseline := collectBaseline(t, testService(t), fullGrid)
	for _, k := range []int{1, 3} {
		k := k
		t.Run(map[int]string{1: "K=1", 3: "K=3"}[k], func(t *testing.T) {
			dir := t.TempDir()
			newBackends := func() ([]shard.Backend, []*vexsmt.Service) {
				var bs []shard.Backend
				var svcs []*vexsmt.Service
				for i := 0; i < k; i++ {
					d, err := cache.NewDisk(dir)
					if err != nil {
						t.Fatal(err)
					}
					svc := testServiceAt(t, testScale, vexsmt.WithCache(d))
					svcs = append(svcs, svc)
					bs = append(bs, shard.NewLocal("cached-"+string(rune('a'+i)), svc))
				}
				return bs, svcs
			}
			run := func() (string, shard.Progress, []*vexsmt.Service) {
				bs, svcs := newBackends()
				var last shard.Progress
				coord, err := shard.New(shard.Config{
					Scale:      testScale,
					Seed:       1,
					OnProgress: func(p shard.Progress) { last = p },
				}, bs...)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := coord.Collect(context.Background(), fullGrid)
				if err != nil {
					t.Fatal(err)
				}
				return encodeCanonical(t, rs), last, svcs
			}

			cold, coldProg, _ := run()
			if cold != baseline {
				t.Fatal("cold cached run differs from uncached baseline")
			}
			if coldProg.CacheHits != 0 {
				// Backends share the directory, so a cell simulated on one
				// backend could in principle be read back by another — but
				// the scheduler runs each cell exactly once.
				t.Fatalf("cold run reported cache hits: %+v", coldProg)
			}

			warm, warmProg, svcs := run()
			if warm != baseline {
				t.Fatal("warm cached run is not byte-identical to the cold run")
			}
			if warmProg.CacheHits != 144 || warmProg.CacheMisses != 0 {
				t.Fatalf("warm run progress %+v, want 144 hits / 0 misses", warmProg)
			}
			var sims int64
			for _, svc := range svcs {
				sims += svc.SimulationsRun()
			}
			if sims != 0 {
				t.Fatalf("warm run performed %d simulator runs, want 0", sims)
			}
		})
	}
}
