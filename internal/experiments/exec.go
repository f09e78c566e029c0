package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"vexsmt/internal/core"
	"vexsmt/internal/rng"
	"vexsmt/internal/sim"
	"vexsmt/internal/stats"
	"vexsmt/internal/synth"
	"vexsmt/internal/workload"
	"vexsmt/internal/wstore"
	"vexsmt/pkg/vexsmt/sched"
)

// Matrix runs and memoizes (mix, technique, thread-count) cells. It is
// safe for concurrent use: concurrent requests for the same cell resolve
// it exactly once (singleflight), and every cell draws its random stream
// from a seed derived purely from the cell's workload identity, so
// results are bit-identical no matter how many workers run the grid or
// in what order. Cancelling the context passed to RunCell/Prefetch/Stream
// aborts in-flight simulations within one timeslice; cancelled cells are
// not memoized, so a later call with a live context re-simulates them.
//
// The worker pool behind Prefetch/Stream is pkg/vexsmt/sched — the same
// cell-level scheduler the distributed coordinator uses — with the matrix
// as its single backend. An optional ResultCache short-circuits
// simulation entirely: a cell found in the cache is decoded instead of
// simulated, and a simulated cell is stored for the next run.
//
// A memoized cell costs only its counters: the memo holds a copy of each
// finished stats.Run, never a pointer into the simulator that produced
// it, so a simulator is garbage as soon as its cell finishes and a
// sweep's memory is bounded by its workers rather than its cells. The
// Matrix also owns the code-layout table its synthetic cells draw from:
// every technique and predictor of one (mix, threads) pair runs the same
// job streams, so each distinct stream's layout is built once and shared
// read-only by all of them. The table grows with the distinct
// (mix, threads) pairs simulated, is allocated on the first simulated
// cell (a plan that only hits the ResultCache allocates none), and is
// freed with the Matrix.
type Matrix struct {
	Scale int64 // divisor of paper scale (1 = paper scale)
	Seed  uint64

	parallel int // fixed at construction; no mid-run mutation

	cache    ResultCache
	cacheKey func(Cell) string
	wl       *wstore.Store // trace workloads; defaults to the process-global store

	sims    atomic.Int64      // simulator runs actually performed (cache hits excluded)
	layouts synth.LayoutTable // code layouts shared by synthetic cells

	mu    sync.Mutex
	cells map[Cell]*cellCall
}

// ResultCache is the content-addressed store a Matrix consults before
// simulating and populates after. Payloads are the JSON encoding of
// stats.Run — all-integer counters, so the round trip is exact and a
// cached cell is bit-identical to a simulated one. Both methods must be
// concurrency-safe and best-effort (a miss costs a re-simulation, never
// correctness). pkg/vexsmt supplies the key function; this package stays
// ignorant of how keys are derived.
type ResultCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
}

// cellCall is one memoized resolution: done closes when run/err are final.
type cellCall struct {
	done   chan struct{}
	run    *stats.Run
	cached bool // recalled from the ResultCache rather than simulated
	err    error
}

// MatrixOption configures a Matrix at construction time.
type MatrixOption func(*Matrix)

// WithParallelism bounds the worker pool used by Prefetch, Stream and the
// figure methods; n < 1 selects GOMAXPROCS. Parallelism is fixed for the
// matrix's lifetime — the old SetParallelism mutator was a data race
// waiting to happen once figures ran concurrently.
func WithParallelism(n int) MatrixOption {
	return func(m *Matrix) {
		if n >= 1 {
			m.parallel = n
		}
	}
}

// WithResultCache attaches a result cache and the function deriving each
// cell's content address. Both must be non-nil for the option to take
// effect.
func WithResultCache(c ResultCache, key func(Cell) string) MatrixOption {
	return func(m *Matrix) {
		if c != nil && key != nil {
			m.cache = c
			m.cacheKey = key
		}
	}
}

// WithWorkloadStore points trace-backed cells at a specific wstore. The
// default is the process-global shared store; tests substitute private
// ones.
func WithWorkloadStore(s *wstore.Store) MatrixOption {
	return func(m *Matrix) {
		if s != nil {
			m.wl = s
		}
	}
}

// NewMatrix builds an empty result matrix at the given scale. Parallelism
// defaults to GOMAXPROCS and is fixed at construction.
func NewMatrix(scale int64, seed uint64, opts ...MatrixOption) *Matrix {
	m := &Matrix{
		Scale:    scale,
		Seed:     seed,
		parallel: runtime.GOMAXPROCS(0),
		wl:       wstore.Shared(),
		cells:    make(map[Cell]*cellCall),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Parallelism returns the worker-pool bound.
func (m *Matrix) Parallelism() int { return m.parallel }

// Simulations returns how many simulator runs the matrix has performed.
// Cache hits do not count: a fully warm sweep reports 0.
func (m *Matrix) Simulations() int64 { return m.sims.Load() }

// CellSeed derives the deterministic seed for one cell, splitmix-style
// from {Seed, mix, threads}. The technique — and the predictor, for the
// same reason — is deliberately excluded: cfg.Seed drives the synthetic
// instruction streams and the context-switch schedule, and the paper's
// speedup figures divide a technique's IPC by its baseline's on the
// *same* workload — a common-random-numbers pairing that small-scale
// runs need for stability. Every technique (and predictor) of a
// (mix, threads) pair therefore shares one seed, so a predictor sweep
// measures front-end effects against an identical instruction stream,
// while parallel and serial execution stay bit-identical because each
// cell's simulator owns its entire random stream. Exposed so tests and
// tools can reproduce a single cell in isolation.
func (m *Matrix) CellSeed(c Cell) uint64 {
	if c.WL != "" {
		// Trace cells: the content reference plays the mix label's role.
		// A reference always contains '@' + a hex hash, so it can never
		// collide with a four-letter mix label.
		return rng.DeriveSeed(m.Seed,
			rng.StringToken(c.WL),
			uint64(c.Threads))
	}
	return rng.DeriveSeed(m.Seed,
		rng.StringToken(c.Mix.Label),
		uint64(c.Threads))
}

// Run returns the memoized run for one cell, simulating on first use.
// Concurrent callers of the same cell share one simulation.
func (m *Matrix) Run(ctx context.Context, mix workload.Mix, tech core.Technique, threads int) (*stats.Run, error) {
	return m.RunCell(ctx, Cell{Mix: mix, Tech: tech, Threads: threads})
}

// RunCell is Run keyed by Cell.
func (m *Matrix) RunCell(ctx context.Context, c Cell) (*stats.Run, error) {
	r, _, err := m.RunCellInfo(ctx, c)
	return r, err
}

// RunCellInfo resolves one cell and additionally reports whether the
// result came from the ResultCache rather than a simulation (a cell
// memoized by an earlier call reports however it was first resolved).
// A cell that aborts on context cancellation is forgotten rather than
// memoized, so retrying with a live context resolves it afresh. A waiter
// piggy-backing on a leader that was cancelled does not inherit the
// foreign context error: if its own context is still live it becomes (or
// joins) the next leader and the cell resolves again — one plan's
// cancellation never poisons another plan sharing cells on the same
// matrix.
func (m *Matrix) RunCellInfo(ctx context.Context, c Cell) (*stats.Run, bool, error) {
	for {
		m.mu.Lock()
		if call, ok := m.cells[c]; ok {
			m.mu.Unlock()
			select {
			case <-call.done:
				if call.err != nil && isCtxErr(call.err) && ctx.Err() == nil {
					continue // leader cancelled, we are live: retry
				}
				return call.run, call.cached, call.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		call := &cellCall{done: make(chan struct{})}
		m.cells[c] = call
		m.mu.Unlock()

		call.run, call.cached, call.err = m.fetchOrSimulate(ctx, c)
		if call.err != nil && ctx.Err() != nil {
			// Cancelled, not failed: drop the memo so a retry re-simulates.
			m.mu.Lock()
			delete(m.cells, c)
			m.mu.Unlock()
		}
		close(call.done)
		return call.run, call.cached, call.err
	}
}

// isCtxErr reports whether err stems from context cancellation or
// deadline expiry (possibly wrapped by simulate).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fetchOrSimulate resolves one cell: cache first, simulator on a miss,
// populating the cache on the way out. A cache entry that fails to decode
// (foreign payload behind a valid checksum) degrades to a miss.
func (m *Matrix) fetchOrSimulate(ctx context.Context, c Cell) (*stats.Run, bool, error) {
	if m.cache != nil {
		if b, ok := m.cache.Get(m.cacheKey(c)); ok {
			var r stats.Run
			if err := json.Unmarshal(b, &r); err == nil {
				return &r, true, nil
			}
		}
	}
	r, err := m.simulate(ctx, c)
	if err != nil {
		return nil, false, err
	}
	if m.cache != nil {
		if b, err := json.Marshal(r); err == nil {
			m.cache.Put(m.cacheKey(c), b)
		}
	}
	return r, false, nil
}

// simulate runs one cell from scratch. It touches no Matrix state beyond
// the immutable Scale/Seed and the simulation counter, so any number of
// cells may simulate at once.
func (m *Matrix) simulate(ctx context.Context, c Cell) (*stats.Run, error) {
	cfg := m.cellConfig(c)
	var s *sim.Simulator
	var err error
	if c.WL != "" {
		s, err = m.newTraceSim(cfg, c)
	} else {
		var profs []synth.Profile
		profs, err = c.Mix.Profiles()
		if err != nil {
			return nil, err
		}
		s, err = sim.NewWorkloadShared(cfg, profs, &m.layouts)
	}
	if err != nil {
		return nil, err
	}
	r, err := s.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", c, err)
	}
	// Counted on completion only, so a cancelled attempt that re-simulates
	// later doesn't double-count and Simulations() means what it says.
	m.sims.Add(1)
	// r points into the simulator; the copy lets the simulator go.
	out := *r
	return &out, nil
}

// cellConfig is the machine and experiment configuration one cell runs.
func (m *Matrix) cellConfig(c Cell) sim.Config {
	cfg := sim.DefaultConfig(c.Tech, c.Threads).WithScale(m.Scale)
	cfg.Seed = m.CellSeed(c)
	cfg.Predictor = c.Pred
	return cfg
}

// newTraceSim builds a simulator whose every hardware context replays the
// cell's trace workload from the shared wstore arena: one zero-copy cursor
// per context, no decoding, no per-cell copies. The simulator's own seed
// (context-switch schedule, cache state) still derives from the cell, so
// trace cells are exactly as deterministic as synthetic ones.
func (m *Matrix) newTraceSim(cfg sim.Config, c Cell) (*sim.Simulator, error) {
	tr, ok := m.wl.Resolve(c.WL)
	if !ok {
		return nil, fmt.Errorf("experiments: workload %q is not loaded in this process", c.WL)
	}
	jobs := make([]*sim.Job, c.Threads)
	for i := range jobs {
		r, err := tr.NewReplayer()
		if err != nil {
			return nil, err
		}
		jobs[i] = sim.NewJob(r, cfg.ScaleDiv)
	}
	return sim.New(cfg, jobs)
}

// Prefetch resolves every cell of a plan over the scheduler and returns
// the first error. After a successful Prefetch, figure assembly only
// reads memoized results. Plain cell errors do not stop the sweep —
// cells are independent, and finishing keeps the memo warm for whoever
// retries — but cancelling ctx stops dispatching and drains the workers.
func (m *Matrix) Prefetch(ctx context.Context, p *Plan) error {
	var first error
	for o := range m.Stream(ctx, p) {
		if o.Err != nil && first == nil {
			first = o.Err
		}
	}
	if err := ctx.Err(); err != nil && first == nil {
		first = err
	}
	return first
}

// CellOutcome is one streamed cell completion: the cell, its memoized run
// on success (with Cached reporting whether it was recalled from the
// ResultCache), or the error that stopped it.
type CellOutcome struct {
	Cell   Cell
	Run    *stats.Run
	Cached bool
	Err    error
}

// cellRes pairs a run with its cache provenance through the scheduler.
type cellRes struct {
	run    *stats.Run
	cached bool
}

// Stream resolves every cell of a plan over the cell scheduler
// (pkg/vexsmt/sched, with this matrix as the single backend at the
// configured parallelism) and delivers each outcome as it completes,
// instead of blocking behind Prefetch's barrier. The channel closes once
// all cells have been delivered or, after cancellation, once the
// in-flight cells have drained (within one timeslice — workers never
// leak). Completion order is nondeterministic but every delivered result
// is bit-identical to a serial run: cells derive their seeds from
// workload identity alone.
func (m *Matrix) Stream(ctx context.Context, p *Plan) <-chan CellOutcome {
	cells := p.Cells()
	out := make(chan CellOutcome)
	backend := sched.NewFunc("matrix", m.parallel, func(ctx context.Context, c Cell) (cellRes, error) {
		r, cached, err := m.RunCellInfo(ctx, c)
		if err != nil {
			// Cell failures are deterministic (the seed travels with the
			// cell); retrying locally would reproduce them.
			return cellRes{}, sched.Permanent(err)
		}
		return cellRes{run: r, cached: cached}, nil
	})
	ch, err := sched.Run(ctx, cells, []sched.Backend[Cell, cellRes]{backend}, sched.Options{})
	if err != nil { // unreachable: Run only rejects an empty backend list
		close(out)
		return out
	}
	go func() {
		defer close(out)
		for r := range ch {
			select {
			case out <- CellOutcome{Cell: r.Item, Run: r.Value.run, Cached: r.Value.cached, Err: r.Err}:
			case <-ctx.Done():
				// Keep draining so the scheduler's workers unwind.
			}
		}
	}()
	return out
}

// Results returns a snapshot of every successfully resolved cell.
func (m *Matrix) Results() map[Cell]stats.Run {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Cell]stats.Run, len(m.cells))
	for c, call := range m.cells {
		select {
		case <-call.done:
			if call.err == nil {
				out[c] = *call.run
			}
		default: // still simulating; skip
		}
	}
	return out
}

// Cells returns the memoized cell count (test instrumentation).
func (m *Matrix) Cells() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells)
}

// SortedCellKeys aids deterministic debugging output.
func (m *Matrix) SortedCellKeys() []string {
	m.mu.Lock()
	keys := make([]string, 0, len(m.cells))
	for c := range m.cells {
		keys = append(keys, c.String())
	}
	m.mu.Unlock()
	sort.Strings(keys)
	return keys
}
