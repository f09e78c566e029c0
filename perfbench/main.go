// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every result it produces, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced run) as a table followed by one JSON line:
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 35 --trace 0
//
// It must run from the repository root. See perfbench/README.md for the
// workloads, the metrics and what each layer metric is expected to move.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"vexsmt/internal/core"
	"vexsmt/internal/report"
	"vexsmt/pkg/vexsmt"
)

// defaultSeed is the workload seed the first digests were recorded under.
// The other recorded seed, 2718, was held out while the benchmark was
// tuned (see digests.json).
const defaultSeed = 1

// setupReps is how many set-up samples each workload takes per run, and
// how many set-ups each sample averages; the median sample is reported.
// grid-cold's set-up takes well under a millisecond, so each sample
// averages many; corpus-replay's loads a fresh copy of the corpus, so each
// sample is one load after a GC, which keeps the copies out of
// peak_rss_mb; serve-warm's simulates the whole grid to fill the cache, so
// it repeats least.
var setupReps = map[string]struct{ reps, each int }{
	"grid-cold":     {15, 50},
	"corpus-replay": {9, 1},
	"serve-warm":    {3, 1},
}

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value (0 = one exact reading)
	Note  string // how it was computed
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "grid-cold, corpus-replay or serve-warm")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 35, "measured time per run, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	export := fs.Bool("export", false, "write the workload's in-process canonical export to standard output and exit (the benchmark runs this in a child process)")
	cacheDir := fs.String("cache-dir", "", "with --export, also store every cell in a disk result cache in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var err error
	if *export {
		err = exportGrid(context.Background(), *name, *seed, *cacheDir, stdout)
	} else {
		err = bench(*name, *seed, *seconds, *traceFlag == 1, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

func newWorkload(name string, e env) (runner, error) {
	switch name {
	case "grid-cold":
		return &gridCold{env: e}, nil
	case "corpus-replay":
		return &corpusReplay{env: e}, nil
	case "serve-warm":
		return &serveWarm{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload (want grid-cold, corpus-replay or serve-warm)")
}

func bench(name string, seed uint64, seconds int, trace bool, stdout io.Writer) error {
	// The corpus path and the digest file are relative to the repository
	// root; refusing to start elsewhere beats a confusing load error.
	if _, err := os.Stat(corpusDir); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	runtime.GOMAXPROCS(workers())
	e := env{seed: seed, par: workers(), rec: newRecorder(), trace: trace,
		out: ".bench_build/perfbench"}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(name, e)
	if err != nil {
		return err
	}
	defer w.close()
	ctx := context.Background()

	// The anchor: whatever the seed under test, the workload's grid at the
	// default seed must reproduce its recorded digest, so a wrong result
	// shows at every seed. It runs in a child process, before set-up, so
	// neither its time nor its memory lands in a measured figure.
	digests := loadDigests(digestFile)
	anchor, err := anchorDigest(ctx, name, e.out)
	if err != nil {
		return fmt.Errorf("anchor run at seed %d: %w", defaultSeed, err)
	}
	anchorErr := digests.verify(name, defaultSeed, anchor)

	var setups []float64
	for i := 0; i < setupReps[name].reps; i++ {
		runtime.GC() // each sample starts from a clean heap, not the last one's garbage
		start := time.Now()
		for j := 0; j < setupReps[name].each; j++ {
			if err := w.setup(ctx); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds()/float64(setupReps[name].each))
	}

	// Collect the set-up's garbage, so every run starts its sweeps from the
	// same heap state instead of whatever the last set-up left behind.
	runtime.GC()

	// Untraced phase: the whole run without tracing, or the first half of
	// a traced run, whose second half is the traced pass.
	window := time.Duration(seconds) * time.Second
	if trace {
		window /= 2
	}
	chk := newChecker(name, seed, digests, anchorErr)
	if ref, refBytes := w.reference(); ref != nil {
		chk.setRef(ref, refBytes)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sweeps, err := measure(ctx, w, window, chk)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	e2e := endToEnd(setups, sweeps)

	out := e2e
	if trace {
		if out, err = traced(ctx, name, w, e, sweeps, chk, &ms0, &ms1); err != nil {
			return err
		}
		if err := e.rec.writeFile(fmt.Sprintf("%s/spans-%s-seed%d.json", e.out, name, seed)); err != nil {
			return err
		}
	}

	printReport(stdout, name, seed, seconds, trace, e, chk, append(e2e, extraEndToEnd(name, chk)...), out)
	return printJSON(stdout, chk, out)
}

// anchorDigest returns the sha256 of the workload's canonical export at
// the default seed, simulated in a child process. That export depends only
// on this binary and the corpus it reads, so the digest is kept in dir
// under a hash of both, and later runs of the same build on the same
// corpus reuse it instead of simulating the grid again.
func anchorDigest(ctx context.Context, name, dir string) (string, error) {
	h := sha256.New()
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	files, err := filepath.Glob(filepath.Join(corpusDir, "*"))
	if err != nil {
		return "", err
	}
	for _, f := range append([]string{exe}, files...) {
		// Streamed, not read whole: the binary alone would add its size
		// to the peak resident set this process reports.
		fh, err := os.Open(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", filepath.Base(f))
		_, err = io.Copy(h, fh)
		fh.Close()
		if err != nil {
			return "", err
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("anchor-%s-%x", name, h.Sum(nil)[:8]))
	if b, err := os.ReadFile(path); err == nil && len(b) == sha256.Size*2 {
		return string(b), nil
	}
	out, err := childExport(ctx, name, defaultSeed, "")
	if err != nil {
		return "", err
	}
	digest := sha256Hex(out)
	// Written whole to a temporary name and renamed, so a concurrent or
	// interrupted run never reads a partial digest.
	tmp := path + fmt.Sprintf(".%d", os.Getpid())
	if err := os.WriteFile(tmp, []byte(digest), 0o644); err == nil {
		os.Rename(tmp, path)
	}
	return digest, nil
}

// workers is how many CPUs the benchmark process runs Go code on
// (GOMAXPROCS) and how many cells a workload runs at once: one fewer than
// the host has, and at least one. The spare CPU is left to whatever else
// the host runs. With every CPU in use, a cell waited for a CPU, and a
// garbage collection for every CPU to stop, whenever the shared host
// briefly took one away, and the run-to-run spread was wider than the
// bounds. The child processes of the anchor and the cache fill keep every
// CPU.
func workers() int {
	return max(1, runtime.NumCPU()-1)
}

// measure runs whole sweeps within the window (at least one), checking
// each as it completes; it starts no sweep that the last one's duration
// says would end past the window. A sweep keeps only its figures once
// checked, so a long run does not pile up result sets.
func measure(ctx context.Context, w runner, window time.Duration, chk *checker) ([]sweep, error) {
	var sweeps []sweep
	deadline := time.Now().Add(window)
	for len(sweeps) == 0 || time.Now().Add(time.Duration(sweeps[len(sweeps)-1].secs*1e9)).Before(deadline) {
		sw, err := w.sweep(ctx)
		if err != nil {
			return nil, fmt.Errorf("sweep %d: %w", len(sweeps)+1, err)
		}
		sw.rssMiB = peakRSSMiB()
		chk.check(sw.rs, sw.enc)
		sw.ncells, sw.encBytes = len(sw.rs.Cells), len(sw.enc)
		for _, c := range sw.rs.Cells {
			sw.instrs += c.Counters.Instrs
		}
		sw.rs, sw.enc = nil, nil
		sweeps = append(sweeps, sw)
	}
	return sweeps, nil
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checker checks every sweep against the reference export: the
// workload's own reference (serve-warm's in-process fill) or else the
// first sweep. Every cell of the run fails unless the anchor run matched
// its recorded digest and, where a digest is recorded for the seed under
// test, the reference matches that too. Each export must also survive a
// decode round trip unchanged.
type checker struct {
	name      string
	seed      uint64
	digests   *digestDoc
	anchorErr error // nil when the default-seed anchor run matched its digest
	ref       *vexsmt.ResultSet
	refBytes  []byte
	trusted   bool

	t            tally
	digest       string // sha256 of the reference export
	digestStatus string
	decodeSecs   []float64
}

func newChecker(name string, seed uint64, digests *digestDoc, anchorErr error) *checker {
	return &checker{name: name, seed: seed, digests: digests, anchorErr: anchorErr}
}

func (c *checker) setRef(ref *vexsmt.ResultSet, b []byte) {
	c.ref, c.refBytes = ref, b
	c.digest = sha256Hex(b)
	err := c.digests.verify(c.name, c.seed, c.digest)
	switch {
	case c.anchorErr != nil:
		c.digestStatus = fmt.Sprintf("ANCHOR FAILED at seed %d: %v", defaultSeed, c.anchorErr)
	case err == nil:
		c.digestStatus, c.trusted = "matches recorded digest", true
	case errors.Is(err, errNoRecord):
		c.digestStatus, c.trusted = fmt.Sprintf("no digest recorded for this seed; the anchor run at seed %d matched its digest", defaultSeed), true
	default:
		c.digestStatus = err.Error()
	}
}

// check checks one sweep's result set and its canonical encoding.
func (c *checker) check(rs *vexsmt.ResultSet, enc []byte) {
	if c.ref == nil {
		c.setRef(rs, enc)
	}
	start := time.Now()
	dec, err := vexsmt.DecodeResults(bytes.NewReader(enc))
	c.decodeSecs = append(c.decodeSecs, time.Since(start).Seconds())
	all := func(bad map[string]bool) {
		for _, cl := range c.ref.Cells {
			bad[cellID(cl)] = true
		}
	}
	bad := failures(c.ref, rs)
	switch {
	case !c.trusted, err != nil:
		all(bad)
	case len(bad) == 0 && !bytes.Equal(enc, c.refBytes):
		all(bad) // equal cells under different metadata: the export is still wrong
	default:
		for id := range failures(rs, dec) {
			bad[id] = true
		}
	}
	c.t.add(tally{attempted: len(c.ref.Cells), failed: len(bad)})
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestFile records, per workload and seed, the sha256 of the canonical
// export, valid for one CacheEpoch: a change that alters simulated
// results must bump the epoch, which retires every recorded digest.
const digestFile = "perfbench/digests.json"

type digestDoc struct {
	CacheEpoch    int                          `json:"cache_epoch"`
	SchemaVersion int                          `json:"schema_version"`
	Digests       map[string]map[string]string `json:"digests"`
	loadErr       error
}

// errNoRecord is verify's answer for a seed without a recorded digest.
var errNoRecord = errors.New("no digest recorded for this seed")

// loadDigests reads the digest file; a missing or unreadable file makes
// every verify fail.
func loadDigests(path string) *digestDoc {
	d := &digestDoc{}
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, d)
	}
	if err != nil {
		d.loadErr = fmt.Errorf("digest file: %w", err)
	}
	return d
}

// verify returns nil when got is the digest recorded for name at seed
// under this build's cache epoch and schema version.
func (d *digestDoc) verify(name string, seed uint64, got string) error {
	switch {
	case d.loadErr != nil:
		return d.loadErr
	case d.CacheEpoch != vexsmt.CacheEpoch || d.SchemaVersion != vexsmt.SchemaVersion:
		return fmt.Errorf("digests recorded for cache epoch %d schema %d, this build is epoch %d schema %d",
			d.CacheEpoch, d.SchemaVersion, vexsmt.CacheEpoch, vexsmt.SchemaVersion)
	}
	want, ok := d.Digests[name][fmt.Sprint(seed)]
	switch {
	case !ok:
		return errNoRecord
	case want != got:
		return fmt.Errorf("MISMATCH: export sha256 %s, recorded %s for %s at seed %d", got, want, name, seed)
	}
	return nil
}

// endToEnd computes the end-to-end metrics of the untraced sweeps.
func endToEnd(setups []float64, sweeps []sweep) []metric {
	var cps, mips, lat []float64
	var perSweep [][]float64
	cells := 0
	for _, sw := range sweeps {
		cps = append(cps, float64(sw.ncells)/sw.secs)
		mips = append(mips, float64(sw.instrs)/sw.secs/1e6)
		l := latenciesMs(sw.cells)
		perSweep = append(perSweep, l)
		lat = append(lat, l...)
		cells += sw.ncells
	}
	q, p99, windows := windowedTail(tailWindows(perSweep), 0.99)
	return []metric{
		{"setup_s", median(setups), "s", len(setups), "median of set-ups"},
		{"cells_per_s", median(cps), "cells/s", len(cps), fmt.Sprintf("median of sweeps, %d cells, interquartile spread %.3f of the median", cells, spread(cps))},
		{"sim_minstrs_per_s", median(mips), "Minstrs/s", len(mips), "median of sweeps, post-warm-up VLIW instrs delivered"},
		{"cell_p50_ms", quantile(lat, 0.5), "ms", len(lat), "one-cell latency, Harrell-Davis median"},
		{"cell_p99_ms", p99, "ms", len(lat), fmt.Sprintf("p%.2f (Harrell-Davis), highest with >=%d samples beyond, median over %d window(s): %d cells each, or one sweep each in runs under %d cells", 100*q, minBeyond, windows, tailWindow, 2*tailWindow)},
		// Read after the first sweep: the Go heap keeps freed memory for a
		// while, so the peak keeps creeping up with every further sweep, and
		// a faster program would otherwise read as a bigger one.
		{"peak_rss_mb", sweeps[0].rssMiB, "MiB", 1, "peak resident set over set-up and the first sweep"},
	}
}

// extraEndToEnd are the two end-to-end figures that stay out of the JSON
// metrics: the failure ratio travels as attempted/failed, and the model
// error is a simulated, seed-determined number that only the grid has.
func extraEndToEnd(name string, chk *checker) []metric {
	ms := []metric{{"fail_ratio", chk.t.ratio(), "failed/attempted", chk.t.attempted, "errors, missing cells and mismatches"}}
	if name != "corpus-replay" {
		if pp, n := paperSpeedupErr(chk.ref); n > 0 {
			ms = append(ms, metric{"paper_speedup_err_pp", pp, "pp", n, "mean |measured - paper| average speedup over the paper's series"})
		}
	}
	return ms
}

// paperSpeedupErr is the mean absolute gap, in percentage points, between
// the measured and the paper-reported average speedups over every Figure
// 14/15 series the paper reports, and the number of series.
func paperSpeedupErr(rs *vexsmt.ResultSet) (float64, int) {
	ipc := map[string]float64{}
	for _, c := range rs.Cells {
		if c.Predictor == "" && c.Workload == "" {
			ipc[fmt.Sprintf("%s|%s|%d", c.Mix, c.Technique, c.Threads)] = c.IPC
		}
	}
	var sum float64
	n := 0
	for _, base := range []core.Technique{core.CSMT(), core.SMT()} {
		for _, tech := range core.AllTechniques() {
			for _, threads := range []int{2, 4} {
				paper, ok := report.PaperAverage(tech, base, threads)
				if !ok {
					continue
				}
				var pct float64
				for _, mix := range vexsmt.Mixes() {
					t := ipc[fmt.Sprintf("%s|%s|%d", mix, tech.Name(), threads)]
					b := ipc[fmt.Sprintf("%s|%s|%d", mix, base.Name(), threads)]
					if b == 0 {
						return math.NaN(), 0
					}
					pct += (t/b - 1) * 100
				}
				sum += math.Abs(pct/float64(len(vexsmt.Mixes())) - paper)
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN(), 0
	}
	return sum / float64(n), n
}

func printReport(w io.Writer, name string, seed uint64, seconds int, trace bool, e env, chk *checker, e2e, out []metric) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v parallelism=%d go=%s/%s %s\n",
		name, seed, seconds, trace, e.par, runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(w, "export sha256 %s: %s\n", chk.digest, chk.digestStatus)
	if trace {
		fmt.Fprintln(w, "end-to-end (untraced half of the traced run):")
	}
	writeRows(w, e2e)
	if trace {
		fmt.Fprintln(w, "per-layer:")
		writeRows(w, out)
	}
}

func writeRows(w io.Writer, ms []metric) {
	fmt.Fprintf(w, "  %-28s %16s %-16s %7s  %s\n", "metric", "value", "unit", "n", "note")
	for _, m := range ms {
		n := "exact"
		if m.N > 0 {
			n = fmt.Sprint(m.N)
		}
		fmt.Fprintf(w, "  %-28s %16.6g %-16s %7s  %s\n", m.Name, m.Value, m.Unit, n, m.Note)
	}
}

// printJSON writes the result line: the last line of standard output.
func printJSON(w io.Writer, chk *checker, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(ms))
	names := make([]string, 0, len(ms))
	for _, m := range ms {
		if !metricName.MatchString(m.Name) {
			return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (%d samples)", m.Name, m.N)
		}
		metrics[m.Name] = value{m.Value, m.Unit}
		names = append(names, m.Name)
	}
	sort.Strings(names)
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{chk.t.failed == 0 && chk.t.attempted > 0, chk.t.attempted, chk.t.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
