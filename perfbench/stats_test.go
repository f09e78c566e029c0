package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		q      float64
		ok     bool
		beyond int
	}{
		{n: 2000, want: 0.99, q: 0.99, ok: true, beyond: 20},
		{n: 1000, want: 0.99, q: 0.99, ok: true, beyond: 10},
		{n: 999, want: 0.99, q: 989.0 / 999, ok: true, beyond: 10},
		{n: 720, want: 0.99, q: 710.0 / 720, ok: true, beyond: 10},
		{n: 144, want: 0.99, q: 134.0 / 144, ok: true, beyond: 10},
		{n: 21, want: 0.99, q: 11.0 / 21, ok: true, beyond: 10},
		{n: 20, want: 0.99, q: 0.5, ok: true, beyond: 10},
		{n: 19, want: 0.99, ok: false}, // below the median: no tail
		{n: 10, want: 0.99, ok: false},
		{n: 0, want: 0.99, ok: false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // reversed, so sorting matters
		}
		q, v, ok := tailPercentile(xs, tc.want)
		if ok != tc.ok {
			t.Fatalf("n=%d: ok=%v, want %v", tc.n, ok, tc.ok)
		}
		if !ok {
			continue
		}
		if math.Abs(q-tc.q) > 1e-12 {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, q, tc.q)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tc.beyond {
			t.Errorf("n=%d: %d samples beyond p%.2f, want %d", tc.n, beyond, 100*q, tc.beyond)
		}
	}
}

func TestWindowedTailIgnoresOneBadWindow(t *testing.T) {
	// A short run: three sweeps of 144 cells, one window per sweep, and a
	// stall that slows 20 cells of the second sweep.
	var sweeps [][]float64
	for k := 0; k < 3; k++ {
		s := make([]float64, 144)
		for i := range s {
			s[i] = float64((i * 89) % 144) // a permutation of 0..143
		}
		sweeps = append(sweeps, s)
	}
	for i := 0; i < 20; i++ {
		sweeps[1][i] = 1e6
	}
	ws := tailWindows(sweeps)
	q, v, n := windowedTail(ws, 0.99)
	pq, pv, _ := tailPercentile(sweeps[0], 0.99)
	if len(ws) != 3 || n != 3 || q != pq || v != pv {
		t.Errorf("short run: p%v=%v over %d windows, want one sweep's p%v=%v over 3", q, v, n, pq, pv)
	}

	// A long run: windows of 1000 cells across sweep boundaries, the last
	// one holding 1500.
	long := make([]float64, 3500)
	for i := range long {
		long[i] = float64(i % 100)
	}
	for i := 1000; i < 1100; i++ {
		long[i] = 1e6 // a stall: 100 slow cells in the second window
	}
	ws = tailWindows([][]float64{long[:1200], long[1200:2400], long[2400:]})
	if len(ws) != 3 || len(ws[0]) != 1000 || len(ws[2]) != 1500 {
		t.Fatalf("long run: %d windows, want 3 of 1000, 1000 and 1500 cells", len(ws))
	}
	q, v, n = windowedTail(ws, 0.99)
	if n != 3 || q != 0.99 || v < 98 || v > 99 {
		t.Errorf("long run: p%v=%v over %d windows, want p99 in [98, 99] over 3", q, v, n)
	}
	if _, v, _ := tailPercentile(long, 0.99); v < 1e5 {
		t.Errorf("pooled p99 %v: the fixture should show the stall when pooled", v)
	}
	if _, v, n := windowedTail([][]float64{long[:10]}, 0.99); n != 0 || !math.IsNaN(v) {
		t.Errorf("10 samples: %v over %d windows, want no tail", v, n)
	}
	if _, v, n := windowedTail(nil, 0.99); n != 0 || !math.IsNaN(v) {
		t.Errorf("no sweeps: %v over %d windows, want no tail", v, n)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	for _, tc := range []struct{ x, a, b, want float64 }{
		{0.3, 1, 1, 0.3},                  // uniform
		{0.3, 3, 1, 0.027},                // x^a
		{0.3, 1, 4, 1 - math.Pow(0.7, 4)}, // 1-(1-x)^b
		{0.5, 7.5, 7.5, 0.5},              // symmetric
		{0.5, 500.5, 500.5, 0.5},          // symmetric, many samples
		{0.2, 2, 3, 0.1808},               // 6x^2 - 8x^3 + 3x^4
		{0, 2, 3, 0}, {1, 2, 3, 1},
	} {
		if got := regIncBeta(tc.x, tc.a, tc.b); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", tc.x, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestQuantileIsHarrellDavis(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	if got := quantile([]float64{4}, 0.5); math.Abs(got-4) > 1e-12 {
		t.Errorf("one sample: %v, want 4", got)
	}
	// On evenly spaced samples the estimate sits at rank p(n+1).
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 999..1, so sorting matters
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		if got, want := quantile(xs, p), p*1000; math.Abs(got-want) > 0.5 {
			t.Errorf("p%v of 1..999: %v, want about %v", p, got, want)
		}
	}
	// Two bunches with the median in the gap between them, as the cells
	// of one grid bunch by thread count. Jitter on the two samples at the
	// bunches' edges moves the sample median by a tenth; the estimate
	// moves by well under 1%.
	bunches := func(edge float64) []float64 {
		var xs []float64
		for i := 0; i < 100; i++ {
			xs = append(xs, 10+float64(i)*0.01, 20+float64(i)*0.01)
		}
		xs[198] *= 1 + edge // the low bunch's top
		xs[1] *= 1 - edge   // the high bunch's bottom
		return xs
	}
	calm, jittered := bunches(0), bunches(0.2)
	if d := math.Abs(median(jittered)/median(calm) - 1); d < 0.05 {
		t.Fatalf("fixture: the sample median moved only %.3f", d)
	}
	if d := math.Abs(quantile(jittered, 0.5)/quantile(calm, 0.5) - 1); d > 0.01 {
		t.Errorf("Harrell-Davis median moved %.3f with the bunches' edges", d)
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4), the
// computation the benchmark's spread is judged by.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
		spread     float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1.0},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0}, 2.15, 4.4, 7.45, 1.2045454545454546},
		{[]float64{2, 8}, 0.5, 5.0, 9.5, 1.8},
		{[]float64{10, 11, 12, 13, 30, 11.5, 10.5, 12.5, 11.2, 10.8}, 10.725, 11.35, 12.625, 0.1674008810572686},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := []float64{q1, q2, q3, median(tc.xs), spread(tc.xs)}
		want := []float64{tc.q1, tc.q2, tc.q3, tc.q2, tc.spread}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("%v: got %v, want %v", tc.xs, got, want)
				break
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func cellsFixture() *vexsmt.ResultSet {
	mk := func(mix string, threads int, ops int64) vexsmt.CellResult {
		k := vexsmt.Counters{Cycles: 1000, Instrs: 400, Ops: ops}
		return vexsmt.CellResult{Mix: mix, Technique: "SMT", Threads: threads, Seed: 7,
			IPC: float64(ops) / 1000, Counters: k}
	}
	return &vexsmt.ResultSet{Cells: []vexsmt.CellResult{mk("llll", 2, 900), mk("llll", 4, 1100), mk("hhhh", 2, 1500)}}
}

func TestFailRatioCountsEveryKindOfFailure(t *testing.T) {
	ref := cellsFixture()

	mismatch := cellsFixture()
	mismatch.Cells[1].Counters.Cycles++ // one counter off: a wrong result
	mismatch.Cells[1].IPC = float64(mismatch.Cells[1].Counters.Ops) / float64(mismatch.Cells[1].Counters.Cycles)

	missing := cellsFixture()
	missing.Cells = missing.Cells[:2]

	errored := cellsFixture()
	errored.Cells[0].Err = "boom"

	cached := cellsFixture()
	cached.Cells[2].Cached = true // transport hint, not part of the result

	foreign := cellsFixture()
	foreign.Cells = append(foreign.Cells, vexsmt.CellResult{Mix: "mmmm", Technique: "SMT", Threads: 2})

	insane := cellsFixture()
	insane.Cells[0].IPC *= 2 // IPC no longer ops/cycles
	insaneRef := cellsFixture()
	insaneRef.Cells[0].IPC *= 2

	for _, tc := range []struct {
		name     string
		ref, got *vexsmt.ResultSet
		failed   int
	}{
		{"identical", ref, cellsFixture(), 0},
		{"mismatch", ref, mismatch, 1},
		{"missing cell", ref, missing, 1},
		{"errored cell", ref, errored, 1},
		{"cached hint", ref, cached, 0},
		{"foreign cell", ref, foreign, 3},
		{"inconsistent IPC", insaneRef, insane, 1},
	} {
		if n := len(failures(tc.ref, tc.got)); n != tc.failed {
			t.Errorf("%s: %d of 3 failed, want %d", tc.name, n, tc.failed)
		}
	}

	var sum tally
	sum.add(tally{3, len(failures(ref, cellsFixture()))})
	sum.add(tally{3, len(failures(ref, mismatch))})
	if sum.attempted != 6 || sum.failed != 1 || math.Abs(sum.ratio()-1.0/6) > 1e-12 {
		t.Errorf("summed tally %+v ratio %v", sum, sum.ratio())
	}
	if (tally{}).ratio() != 0 {
		t.Error("nothing attempted should read as no failures")
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"cells_per_s", "sim.ns_per_cycle", "go.gc_pause_s", "a-b.c_9", "9lives"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "sp ace", "p99%", "a/b", "ünï", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// BENCHMARK.json declares the metrics a run reports; the program must
// report exactly those, with names in the charset.
func TestDeclaredMetricsMatchReported(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			if !metricName.MatchString(m.Name) {
				t.Errorf("declared name %q outside the charset", m.Name)
			}
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	sw := sweep{ncells: 3, instrs: 1200, secs: 1, cells: []interval{{0, 1e6}}, rssMiB: 1}
	var e2e []string
	for _, m := range endToEnd([]float64{1}, []sweep{sw}) {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	if got, want := strings.Join(names(doc.EndToEnd), ","), strings.Join(e2e, ","); got != want {
		t.Errorf("end_to_end declared %s\nreported %s", got, want)
	}
	layers := perLayerUnits()
	sort.Strings(layers)
	if got, want := strings.Join(names(doc.PerLayer), ","), strings.Join(layers, ","); got != want {
		t.Errorf("per_layer declared %s\nreported %s", got, want)
	}
}

func TestParseCPUProfileAttributesSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += spin(1 << 16)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spun float64
	for _, s := range samples {
		total += float64(s.ns)
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				spun += float64(s.ns)
				break
			}
		}
	}
	if total == 0 || spun/total < 0.5 {
		t.Errorf("%d samples, %.0f%% with the spin loop on their stack (x=%d)",
			len(samples), 100*spun/total, x)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed")
	}
}

func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"vexsmt/internal/cache.(*Cache).Access", "vexsmt/internal/sim.(*Simulator).fetch"}, "cache"},
		{[]string{"runtime.mallocgc", "encoding/json.Marshal", "vexsmt/pkg/vexsmt/cache.Key"}, "rcache"},
		{[]string{"vexsmt/pkg/vexsmt/sched.(*state[...]).worker"}, "sched"},
		{[]string{"vexsmt/pkg/vexsmt.(*Service).Collect"}, "schema"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop", "runtime.goexit"}, "http"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"vexsmt/internal/report.PaperAverage"}, "other"},
		{[]string{"crypto/sha256.block"}, "unattributed"},
		// The built binary names this benchmark's own functions "main.*".
		{[]string{"time.now", "main.timedStream.NextN", "vexsmt/internal/sim.(*Simulator).fetch"}, "bench"},
		{[]string{"bytes.Equal", "main.(*checker).check", "main.main", "runtime.main"}, "bench"},
		{[]string{"vexsmt/internal/synth.(*Generator).NextN", "main.timedStream.NextN"}, "synth"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%v: %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func encodeFixture(t *testing.T, rs *vexsmt.ResultSet) []byte {
	t.Helper()
	b, _, err := encode(rs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixtureDigests records the fixture's export as grid-cold's at the
// default seed, under this build's epoch.
func fixtureDigests(t *testing.T) *digestDoc {
	return &digestDoc{CacheEpoch: vexsmt.CacheEpoch, SchemaVersion: vexsmt.SchemaVersion,
		Digests: map[string]map[string]string{"grid-cold": {
			fmt.Sprint(defaultSeed): sha256Hex(encodeFixture(t, cellsFixture()))}}}
}

func TestCheckerComparesEachSweepWithTheReference(t *testing.T) {
	c := newChecker("grid-cold", defaultSeed, fixtureDigests(t), nil)
	first := cellsFixture()
	c.check(first, encodeFixture(t, first)) // becomes the reference
	same := cellsFixture()
	c.check(same, encodeFixture(t, same))
	wrong := cellsFixture()
	wrong.Cells[0].Counters.Cycles++
	wrong.Cells[0].IPC = float64(wrong.Cells[0].Counters.Ops) / float64(wrong.Cells[0].Counters.Cycles)
	c.check(wrong, encodeFixture(t, wrong))
	meta := cellsFixture()
	meta.Meta.Seed = 99 // same cells, different experiment
	c.check(meta, encodeFixture(t, meta))
	if c.t != (tally{12, 4}) {
		t.Errorf("tally %+v, want 4 of 12 failed (1 mismatch + 3 under foreign metadata)", c.t)
	}
}

// A sweep that agrees with itself still fails every cell unless the
// recorded digests vouch for the reference, whatever the seed.
func TestCheckerFailsAllUnlessDigestsVouch(t *testing.T) {
	stale := fixtureDigests(t)
	stale.CacheEpoch--
	for _, tc := range []struct {
		name    string
		seed    uint64
		digests *digestDoc
		anchor  error
		failed  int
	}{
		{"recorded seed matches", defaultSeed, fixtureDigests(t), nil, 0},
		{"unrecorded seed, anchor matched", 4242, fixtureDigests(t), nil, 0},
		{"anchor mismatched", 4242, fixtureDigests(t), errors.New("MISMATCH"), 3},
		{"recorded seed mismatches", 2718, &digestDoc{CacheEpoch: vexsmt.CacheEpoch, SchemaVersion: vexsmt.SchemaVersion,
			Digests: map[string]map[string]string{"grid-cold": {"2718": "00"}}}, nil, 3},
		{"digests of another epoch", defaultSeed, stale, nil, 3},
		{"no digest file", defaultSeed, loadDigests("no-such-file.json"), nil, 3},
	} {
		c := newChecker("grid-cold", tc.seed, tc.digests, tc.anchor)
		rs := cellsFixture()
		c.check(rs, encodeFixture(t, rs))
		if c.t != (tally{3, tc.failed}) {
			t.Errorf("%s: tally %+v, want %d of 3 failed (%s)", tc.name, c.t, tc.failed, c.digestStatus)
		}
	}
}

func TestDigestVerify(t *testing.T) {
	d := fixtureDigests(t)
	good := sha256Hex(encodeFixture(t, cellsFixture()))
	if err := d.verify("grid-cold", defaultSeed, good); err != nil {
		t.Errorf("recorded digest: %v", err)
	}
	if err := d.verify("grid-cold", defaultSeed, "00"); err == nil || errors.Is(err, errNoRecord) {
		t.Errorf("wrong digest: %v", err)
	}
	if err := d.verify("grid-cold", 7, good); !errors.Is(err, errNoRecord) {
		t.Errorf("unrecorded seed: %v", err)
	}
	d.SchemaVersion++
	if err := d.verify("grid-cold", defaultSeed, good); err == nil {
		t.Error("digest of another schema accepted")
	}
	if err := loadDigests("no-such-file.json").verify("grid-cold", defaultSeed, good); err == nil {
		t.Error("missing digest file accepted")
	}
	// The shipped file is readable and current.
	if err := loadDigests("digests.json").verify("grid-cold", 7, good); !errors.Is(err, errNoRecord) {
		t.Errorf("digests.json: %v", err)
	}
}
