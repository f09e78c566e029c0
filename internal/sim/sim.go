package sim

import (
	"fmt"

	"vexsmt/internal/bpred"
	"vexsmt/internal/cache"
	"vexsmt/internal/core"
	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
	"vexsmt/internal/stats"
	"vexsmt/internal/synth"
)

// fetchBatch is how many instructions a job prefetches from its stream per
// refill; the sizing rationale lives with the generator (synth.BatchSize).
const fetchBatch = synth.BatchSize

// Job is one software thread of the workload: a benchmark instance that
// respawns when it runs to completion (Section VI-A).
type Job struct {
	Stream    synth.Stream
	Executed  int64 // cumulative VLIW instructions (drives termination)
	remaining int64 // instructions left in the current spawn
	variant   uint64

	// Prefetch buffer: raw (un-renamed) instructions drawn from Stream in
	// fetchBatch runs. The buffer travels with the job across context
	// switches; renaming is applied per-context at consumption time.
	buf       []synth.TInst
	bufPos    int
	drawsLeft int64 // instructions left to draw from Stream this spawn
}

// NewJob wraps a stream; scaleDiv scales the benchmark length.
func NewJob(s synth.Stream, scaleDiv int64) *Job {
	n := s.Length(scaleDiv)
	return &Job{Stream: s, remaining: n, drawsLeft: n}
}

// ctx is one hardware thread context's boxed state: the job it runs and
// its in-flight instruction. The context's scheduling state — wake-up
// cycle and pipeline condition flags — lives in flat struct-of-arrays on
// the Simulator (ready, and the have/loaded/wantSw/wasSplit bitmasks), so
// the per-cycle paths evaluate whole-machine conditions with bitwise
// operations instead of walking per-context structs with bool fields.
type ctx struct {
	job      *Job
	ti       synth.TInst // current instruction, cluster-renamed
	rotation int
}

// Simulator runs one configuration over one workload. A Simulator owns all
// of its mutable state — engine, caches, contexts, scratch buffers — so
// independent simulators can run on concurrent goroutines without
// synchronization. The run loop itself lives in run.go, split into
// fetch/issue/commit phases.
type Simulator struct {
	cfg  Config
	eng  *core.Engine
	ic   *cache.Cache
	dc   *cache.Cache
	jobs []*Job
	ctxs []ctx
	r    *rng.Rand
	run  stats.Run

	// preds holds one predictor per hardware context, or nil when the
	// configuration models the paper's fixed front end ("static"). A nil
	// slice keeps retire() on the exact legacy taken-branch path, which is
	// what makes the default bit-identical to the pre-predictor simulator.
	preds []bpred.Predictor

	// Per-context scheduling state, struct-of-arrays (bit t of a mask is
	// hardware context t; see the ctx type comment).
	ready    [core.MaxThreads]int64 // cycle at which the context may fetch/issue again
	have     uint8                  // contexts holding a fetched instruction
	loaded   uint8                  // contexts whose instruction is loaded into the engine
	wantSw   uint8                  // contexts marked for replacement at the next boundary
	wasSplit uint8                  // contexts whose current instruction has split-issued
	allCtx   uint8                  // (1 << Threads) - 1

	st      runState // per-run bookkeeping and per-cycle scratch
	waiting []*Job   // reusable context-switch candidate buffer

	bmtCur      int
	switchCount uint64
}

// New builds a simulator over the given jobs. Jobs beyond the hardware
// context count wait and enter at context switches.
func New(cfg Config, jobs []*Job) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sim: no jobs")
	}
	if cfg.TimesliceCycles <= 0 && len(jobs) > cfg.Threads {
		return nil, fmt.Errorf("sim: %d jobs exceed %d contexts and multitasking is disabled",
			len(jobs), cfg.Threads)
	}
	eng, err := core.NewEngine(cfg.Geom, cfg.Tech, cfg.Threads)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:     cfg,
		eng:     eng,
		jobs:    jobs,
		r:       rng.New(cfg.Seed),
		waiting: make([]*Job, 0, len(jobs)),
	}
	if !cfg.PerfectMemory {
		if s.ic, err = cache.New(cfg.ICache); err != nil {
			return nil, err
		}
		if s.dc, err = cache.New(cfg.DCache); err != nil {
			return nil, err
		}
	}
	for _, j := range jobs {
		if j.buf == nil {
			j.buf = make([]synth.TInst, 0, fetchBatch)
		}
	}
	if name, _ := bpred.Canonical(cfg.Predictor); name != bpred.Default {
		s.preds = make([]bpred.Predictor, cfg.Threads)
		for t := range s.preds {
			if s.preds[t], err = bpred.New(name); err != nil {
				return nil, err
			}
		}
	}
	s.ctxs = make([]ctx, cfg.Threads)
	s.allCtx = uint8(1)<<uint(cfg.Threads) - 1
	for t := range s.ctxs {
		if t < len(jobs) {
			s.ctxs[t].job = jobs[t]
		}
		if cfg.ClusterRenaming {
			s.ctxs[t].rotation = core.RenameRotation(t, cfg.Geom.Clusters, cfg.Threads)
		}
	}
	return s, nil
}

// NewWorkload builds jobs from benchmark profiles and a simulator over
// them; each job's generator is independently seeded.
func NewWorkload(cfg Config, profiles []synth.Profile) (*Simulator, error) {
	return NewWorkloadShared(cfg, profiles, new(synth.LayoutTable))
}

// NewWorkloadShared is NewWorkload drawing each job's code layout from
// layouts, so simulators over the same job streams share their layouts
// instead of rebuilding them. The layout key is the profile after the
// per-job seed mix, so sharing never changes a run.
func NewWorkloadShared(cfg Config, profiles []synth.Profile, layouts *synth.LayoutTable) (*Simulator, error) {
	jobs := make([]*Job, len(profiles))
	for i, p := range profiles {
		p.Seed ^= cfg.Seed * 0x9E3779B97F4A7C15
		l, err := layouts.Layout(p, cfg.Geom)
		if err != nil {
			return nil, err
		}
		jobs[i] = NewJob(l.NewGenerator(), cfg.ScaleDiv)
	}
	return New(cfg, jobs)
}

// rotateInto applies cluster renaming to a fetched instruction, writing
// the result in place: demand and per-cluster memory addresses move
// together in one modulo-free pass (equivalent to InstrDemand.Rotate plus
// the address rotation, fused for the fetch hot path). src and dst must
// not alias.
func rotateInto(dst, src *synth.TInst, by, clusters int) {
	if by == 0 {
		*dst = *src
		return
	}
	dst.Demand.HasComm = src.Demand.HasComm
	dst.Demand.Taken = src.Demand.Taken
	j := by
	for c := 0; c < clusters; c++ {
		dst.Demand.B[j] = src.Demand.B[c]
		dst.MemAddr[j] = src.MemAddr[c]
		j++
		if j == clusters {
			j = 0
		}
	}
	for c := clusters; c < isa.MaxClusters; c++ {
		dst.Demand.B[c] = src.Demand.B[c]
		dst.MemAddr[c] = src.MemAddr[c]
	}
	dst.PC = src.PC
	dst.Size = src.Size
	dst.Taken = src.Taken
	dst.IsBranch = src.IsBranch
}
