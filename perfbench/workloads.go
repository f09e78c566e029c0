package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"time"

	"vexsmt/internal/wstore"
	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/server"
	"vexsmt/pkg/vexsmt/shard"
)

// Every workload runs at 1/4000 of paper scale: each cell still runs 50K
// VLIW instructions past a 5K-instruction warm-up, and a whole sweep takes
// a few seconds, so one run holds several sweeps and reports their median.
const (
	benchScale = 4000
	corpusDir  = "examples/corpus"
)

// gridPlan is the union of Figures 14-16: 8 techniques x 9 mixes x {2,4}
// threads, 144 cells.
var gridPlan = vexsmt.Plan{Figures: []string{"14", "15", "16"}}

// corpusPredictors crosses the corpus grid with the static front end and
// two modeled predictors, so the predictor layer does work.
var corpusPredictors = []string{"static", "gshare", "tage"}

// sweep is one timed pass over a workload's plan: the canonical result
// set, its encoding, and how long collecting and encoding took.
type sweep struct {
	rs        *vexsmt.ResultSet // dropped once checked
	enc       []byte            // dropped once checked
	ncells    int
	instrs    int64 // Σ counters.instrs
	encBytes  int
	secs      float64
	encodeSec float64
	cells     []interval // per-cell busy intervals observed at the workload's boundary
	from, to  int64      // the sweep's window on the recorder clock
	// counts holds the sweep's layer counters by metric name (calls,
	// seconds, bytes), as observed by the wrappers.
	counts map[string]float64
	rssMiB float64 // the process's peak resident set so far
}

// runner is one benchmark workload: set-up (repeatable; each call
// replaces the previous state) and timed sweeps over that state.
type runner interface {
	setup(ctx context.Context) error
	sweep(ctx context.Context) (sweep, error)
	// reference is the result every sweep must reproduce and its
	// canonical export, or nil when the first sweep sets it.
	reference() (*vexsmt.ResultSet, []byte)
	// slots is how many cells run at once.
	slots() int
	plan() vexsmt.Plan
	close()
}

// env is what every workload shares: the seed under test, the worker
// count, the span recorder and the output directory.
type env struct {
	seed  uint64
	par   int
	rec   *recorder
	trace bool
	out   string
}

// encode writes rs in its canonical form and returns the bytes and the
// encode time.
func encode(rs *vexsmt.ResultSet) ([]byte, float64, error) {
	start := time.Now()
	rs.Canonicalize()
	var buf bytes.Buffer
	if err := vexsmt.EncodeResults(&buf, rs); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), time.Since(start).Seconds(), nil
}

// newService builds the in-process Service a workload's grid runs on.
func newService(name string, seed uint64, par int, c vexsmt.CellCache) (*vexsmt.Service, error) {
	opts := []vexsmt.Option{vexsmt.WithScale(benchScale), vexsmt.WithSeed(seed),
		vexsmt.WithParallelism(par), vexsmt.WithCache(c)}
	if name == "corpus-replay" {
		opts = append(opts, vexsmt.WithWorkloadDir(corpusDir))
	}
	return vexsmt.New(opts...)
}

// corpusPlan crosses the loaded corpus with the predictors.
func corpusPlan(traces []*wstore.Trace) vexsmt.Plan {
	p := vexsmt.Plan{Predictors: corpusPredictors}
	for _, t := range traces {
		p.Workloads = append(p.Workloads, t.Name)
	}
	return p
}

// exportGrid simulates the workload's grid in-process at seed and writes
// its canonical export to w; with dir set, every cell is also stored in a
// disk result cache there. The benchmark runs it in a child process (see
// childExport).
func exportGrid(ctx context.Context, name string, seed uint64, dir string, w io.Writer) error {
	var plan vexsmt.Plan
	switch name {
	case "grid-cold", "serve-warm":
		plan = gridPlan
	case "corpus-replay":
		traces, err := wstore.New().LoadDir(corpusDir)
		if err != nil {
			return err
		}
		plan = corpusPlan(traces)
	default:
		return fmt.Errorf("unknown workload")
	}
	var c vexsmt.CellCache
	if dir != "" {
		disk, err := cache.NewDisk(dir)
		if err != nil {
			return err
		}
		c = disk
	}
	svc, err := newService(name, seed, runtime.NumCPU(), c)
	if err != nil {
		return err
	}
	rs, err := svc.Collect(ctx, plan)
	if err != nil {
		return err
	}
	b, _, err := encode(rs)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// childExport runs exportGrid in a child process of this binary and
// returns the export. The child's memory is its own, so a grid simulated
// only to check or to fill a cache never shows in this process's peak
// resident set.
func childExport(ctx context.Context, name string, seed uint64, dir string) ([]byte, error) {
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--export"}
	if dir != "" {
		args = append(args, "--cache-dir", dir)
	}
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// cacheNames maps every cell's cache key to its name, for span labels.
func cacheNames(svc *vexsmt.Service, p vexsmt.Plan) (map[string]string, error) {
	specs, err := svc.PlanCells(p)
	if err != nil {
		return nil, err
	}
	names := make(map[string]string, len(specs))
	for _, s := range specs {
		names[vexsmt.CacheKey(svc.Meta(), s)] = cellID(vexsmt.CellResult{
			Mix: s.Mix, Workload: s.Workload, Technique: s.Technique, Threads: s.Threads, Predictor: s.Predictor})
	}
	return names, nil
}

// gridCold runs the Figures 14-16 grid on a fresh Service with an empty
// in-memory result cache every sweep: every cell misses, simulates and is
// written.
type gridCold struct {
	env
	names map[string]string
}

// setup builds a Service and resolves the plan into its cells: the work
// done before the first cell can simulate.
func (g *gridCold) setup(context.Context) error {
	svc, err := newService("grid-cold", g.seed, g.par, cache.NewMemory(0))
	if err != nil {
		return err
	}
	if _, err := svc.PlanCells(gridPlan); err != nil {
		return err
	}
	if g.trace && g.names == nil {
		g.names, err = cacheNames(svc, gridPlan)
	}
	return err
}

func (g *gridCold) sweep(ctx context.Context) (sweep, error) {
	from := g.rec.now()
	start := time.Now()
	probe := newProbeCache(cache.NewMemory(0), g.rec, g.names)
	svc, err := newService("grid-cold", g.seed, g.par, probe)
	if err != nil {
		return sweep{}, err
	}
	rs, err := svc.Collect(ctx, gridPlan)
	if err != nil {
		return sweep{}, err
	}
	enc, encSec, err := encode(rs)
	if err != nil {
		return sweep{}, err
	}
	return sweep{rs: rs, enc: enc, secs: time.Since(start).Seconds(), encodeSec: encSec,
		cells: probe.cells.take(), from: from, to: g.rec.now(), counts: probe.counts()}, nil
}

func (g *gridCold) reference() (*vexsmt.ResultSet, []byte) { return nil, nil }
func (g *gridCold) slots() int                             { return g.par }
func (g *gridCold) plan() vexsmt.Plan                      { return gridPlan }
func (g *gridCold) close()                                 {}

// corpusReplay runs the shipped trace corpus under every technique at 2
// and 4 threads, crossed with three predictors, with the result cache
// off. A store-nothing cache decorator times each cell; it never hits.
type corpusReplay struct {
	env
	names    map[string]string
	loadSecs []float64 // wstore.LoadDir into a fresh store, per set-up
	cells    vexsmt.Plan
}

// setup loads the corpus into a fresh store, which decodes every trace
// and runs every program again, as a new process would; the Service then
// resolves the corpus against the process-wide store.
func (c *corpusReplay) setup(context.Context) error {
	start := time.Now()
	traces, err := wstore.New().LoadDir(corpusDir)
	if err != nil {
		return err
	}
	c.loadSecs = append(c.loadSecs, time.Since(start).Seconds())
	svc, err := newService("corpus-replay", c.seed, c.par, nil)
	if err != nil {
		return err
	}
	c.cells = corpusPlan(traces)
	if _, err := svc.PlanCells(c.cells); err != nil {
		return err
	}
	if c.trace && c.names == nil {
		c.names, err = cacheNames(svc, c.cells)
	}
	return err
}

func (c *corpusReplay) sweep(ctx context.Context) (sweep, error) {
	from := c.rec.now()
	start := time.Now()
	probe := newProbeCache(discard{}, c.rec, c.names)
	svc, err := newService("corpus-replay", c.seed, c.par, probe)
	if err != nil {
		return sweep{}, err
	}
	rs, err := svc.Collect(ctx, c.cells)
	if err != nil {
		return sweep{}, err
	}
	enc, encSec, err := encode(rs)
	if err != nil {
		return sweep{}, err
	}
	return sweep{rs: rs, enc: enc, secs: time.Since(start).Seconds(), encodeSec: encSec,
		cells: probe.cells.take(), from: from, to: c.rec.now(), counts: probe.counts()}, nil
}

func (c *corpusReplay) reference() (*vexsmt.ResultSet, []byte) { return nil, nil }
func (c *corpusReplay) slots() int                             { return c.par }
func (c *corpusReplay) plan() vexsmt.Plan                      { return c.cells }
func (c *corpusReplay) close()                                 {}

// serveWarm serves the grid from a daemon whose on-disk result cache the
// set-up filled with the grid-cold cells; a coordinator with one HTTP
// backend then repeats full sweeps, and every cell is a cache hit. The
// coordinator keeps at most env.par cells in flight, below the daemon's
// advertised capacity, so the client and server goroutines of one cell
// never queue behind another cell's for a CPU.
type serveWarm struct {
	env
	ref      *vexsmt.ResultSet // the in-process export the fill produced
	refBytes []byte

	dir      string
	srv      *server.Server
	hs       *http.Server
	served   chan error
	srvCache *probeCache
	handler  *serverProbe
	rt       *probeTransport
	backend  *probeBackend
	coord    *shard.Coordinator
	capacity int

	// Coordinator progress of the sweep in flight.
	retries, steals int
}

func (s *serveWarm) setup(ctx context.Context) error {
	s.close()
	dir, err := os.MkdirTemp(s.out, "serve-warm-")
	if err != nil {
		return err
	}
	s.dir = dir
	// The fill runs in a child process, so that the daemon's peak
	// resident set is the daemon's own.
	if s.refBytes, err = childExport(ctx, "serve-warm", s.seed, dir); err != nil {
		return fmt.Errorf("cache fill: %w", err)
	}
	if s.ref, err = vexsmt.DecodeResults(bytes.NewReader(s.refBytes)); err != nil {
		return err
	}
	disk, err := cache.NewDisk(dir)
	if err != nil {
		return err
	}

	var cc vexsmt.CellCache = disk
	if s.trace {
		svc, err := newService("serve-warm", s.seed, s.par, nil)
		if err != nil {
			return err
		}
		names, err := cacheNames(svc, gridPlan)
		if err != nil {
			return err
		}
		s.srvCache = newProbeCache(disk, s.rec, names)
		cc = s.srvCache
	}
	// The daemon runs with its default parallelism, GOMAXPROCS; the
	// coordinator below keeps only s.par cells in flight.
	s.srv = server.New(benchScale, s.seed, runtime.GOMAXPROCS(0), server.WithCache(cc))
	h := s.srv.Handler()
	if s.trace {
		s.handler = &serverProbe{rec: s.rec}
		h = s.handler.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()

	var opts []shard.HTTPOption
	if s.trace {
		s.rt = &probeTransport{base: http.DefaultTransport, rec: s.rec}
		opts = append(opts, shard.WithClient(&http.Client{Transport: s.rt}))
	}
	hb, err := shard.NewHTTP("http://"+ln.Addr().String(), opts...)
	if err != nil {
		return err
	}
	health, err := hb.Health(ctx)
	if err != nil {
		return err
	}
	s.capacity = min(health.Capacity, s.par)
	s.backend = &probeBackend{Backend: hb, rec: s.rec, limit: s.capacity}
	s.coord, err = shard.New(shard.Config{Scale: benchScale, Seed: s.seed, OnProgress: func(p shard.Progress) {
		s.retries, s.steals = p.Retries, p.Stolen
	}}, s.backend)
	return err
}

func (s *serveWarm) sweep(ctx context.Context) (sweep, error) {
	before := s.counts()
	from := s.rec.now()
	start := time.Now()
	rs, err := s.coord.Collect(ctx, gridPlan)
	if err != nil {
		return sweep{}, err
	}
	enc, encSec, err := encode(rs)
	if err != nil {
		return sweep{}, err
	}
	sw := sweep{rs: rs, enc: enc, secs: time.Since(start).Seconds(), encodeSec: encSec,
		cells: s.backend.cells.take(), from: from, to: s.rec.now(), counts: s.counts()}
	for k, v := range before {
		sw.counts[k] -= v
	}
	sw.counts["shard.retries"], sw.counts["shard.steals"] = float64(s.retries), float64(s.steals)
	return sw, nil
}

// counts snapshots the cumulative wrapper counters; the traced-only
// wrappers read as zero in an untraced run.
func (s *serveWarm) counts() map[string]float64 {
	m := map[string]float64{}
	if s.srvCache != nil {
		m = s.srvCache.counts()
	}
	m["shard.job_s"] = seconds(s.backend.jobs.ns.Load())
	if s.handler != nil {
		m["server.requests"] = float64(s.handler.handlers.calls.Load())
		m["server.handler_s"] = seconds(s.handler.handlers.ns.Load())
		m["server.rejected"] = float64(s.handler.rejected.Load())
	}
	if s.rt != nil {
		m["http.requests"] = float64(s.rt.rt.calls.Load())
		m["http.rtt_s"] = seconds(s.rt.rt.ns.Load())
		m["http.bytes_in"] = float64(s.rt.rt.bytes.Load())
	}
	return m
}

func (s *serveWarm) reference() (*vexsmt.ResultSet, []byte) { return s.ref, s.refBytes }
func (s *serveWarm) slots() int                             { return s.capacity }
func (s *serveWarm) plan() vexsmt.Plan                      { return gridPlan }

// close stops the server, waits for it to exit and removes the cache
// directory. It is safe to call on a partly built or closed workload.
func (s *serveWarm) close() {
	if s.hs != nil {
		s.srv.CancelJobs()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.hs.Shutdown(ctx); err != nil {
			s.hs.Close()
		}
		cancel()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: server: %v\n", err)
		}
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		s.hs = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}
