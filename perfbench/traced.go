package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"vexsmt/internal/core"
	"vexsmt/internal/sim"
	"vexsmt/internal/stats"
	"vexsmt/internal/synth"
	"vexsmt/internal/workload"
	"vexsmt/internal/wstore"
	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/sched"
)

// traced runs the traced pass after the untraced sweeps, adds its output
// checks to chk and returns the per-layer metrics.
//
// On grid-cold and corpus-replay the pass rebuilds every cell's simulator
// from its public identity (technique, threads, predictor, the cell seed
// the Service reported, and the mix's profiles or the corpus trace),
// wraps each job's instruction stream to time generation or replay, runs
// the cells over the same number of workers under a CPU profile, and
// checks each rebuilt run's counters against the untraced export. The
// cache model, the issue engine and the predictor have no seam inside the
// simulator's run loop, so their self times come from the profile.
//
// On serve-warm the pass repeats sweeps with spans on and the profile
// running; the server, backend, transport and cache wrappers time each
// layer boundary.
func traced(ctx context.Context, name string, w runner, e env, sweeps []sweep, chk *checker,
	ms0, ms1 *runtime.MemStats) ([]metric, error) {

	decodeSecs := append([]float64(nil), chk.decodeSecs...) // the untraced sweeps'
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	e.rec.on.Store(true)
	from := e.rec.now()
	tot := &simTotals{}
	cells := 0
	var err error
	if name == "serve-warm" {
		// As many sweeps as the untraced phase ran.
		var again []sweep
		again, err = measure(ctx, w, time.Duration(float64(len(sweeps))*medianSweep(sweeps)*float64(time.Second)), chk)
		for _, sw := range again {
			cells += sw.ncells
		}
	} else {
		var t tally
		tot, t, err = rebuildAll(ctx, chk.ref, e)
		chk.t.add(t)
		cells = len(chk.ref.Cells)
	}
	to := e.rec.now()
	e.rec.on.Store(false)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	plan, err := planSeconds(w)
	if err != nil {
		return nil, err
	}
	in := layerInputs{sims: tot, sweeps: sweeps, decodeSecs: decodeSecs, ms0: ms0, ms1: ms1,
		samples: samples, wall: float64(to-from) / 1e9, cpus: runtime.GOMAXPROCS(0), slots: w.slots(),
		tracedCells: cells, planSecs: plan, loadSecs: loadSeconds(w)}
	if name != "corpus-replay" {
		in.paperErr, _ = paperSpeedupErr(chk.ref)
	}
	return layerMetrics(in), nil
}

// layerInputs is everything the per-layer metrics derive from.
type layerInputs struct {
	sims        *simTotals
	sweeps      []sweep // the untraced sweeps
	decodeSecs  []float64
	ms0, ms1    *runtime.MemStats // around the untraced sweeps
	samples     []cpuSample       // the traced pass's CPU profile
	wall        float64           // the traced pass's wall time
	cpus, slots int               // CPUs the process may use; cells in flight at most
	tracedCells int
	planSecs    float64
	loadSecs    []float64
	paperErr    float64
}

// layerMetrics computes the per-layer metrics. Counts from the rebuilt
// simulators are exact; counters observed by the wrappers are per-sweep
// medians over the untraced sweeps; self times come from the profile.
func layerMetrics(in layerInputs) []metric {
	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{Name: name, Value: v, Unit: unit}) }
	ratio := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	tot := in.sims
	r := tot.run
	add("sim.run_s", float64(tot.runNs)/1e9, "s")
	add("sim.ns_per_cycle", ratio(tot.runNs, r.Cycles), "ns")
	add("sim.cycles", float64(r.Cycles), "count")
	add("sim.instrs", float64(r.Instrs), "count")
	add("sim.empty_cycle_ratio", ratio(r.EmptyCycles, r.Cycles), "ratio")
	add("synth.generators_built", float64(tot.generators), "count")
	add("synth.distinct_streams", float64(tot.distinct), "count")
	add("synth.stream_reuse_ratio", ratio(int64(tot.distinct), tot.generators), "ratio")
	add("synth.instrs_generated", float64(tot.instrsGen), "count")
	add("synth.busy_s", float64(tot.nextNs)/1e9, "s")
	add("synth.build_s", float64(tot.buildNs)/1e9, "s")
	add("replay.instrs", float64(tot.instrsRepl), "count")
	add("replay.busy_s", float64(tot.replNs)/1e9, "s")
	add("wstore.load_s", median0(in.loadSecs), "s")
	add("cache.icache_accesses", float64(r.ICacheAccesses), "count")
	add("cache.icache_miss_ratio", ratio(r.ICacheMisses, r.ICacheAccesses), "ratio")
	add("cache.dcache_accesses", float64(r.DCacheAccesses), "count")
	add("cache.dcache_miss_ratio", ratio(r.DCacheMisses, r.DCacheAccesses), "ratio")
	add("core.ops", float64(r.Ops), "count")
	add("core.split_instr_ratio", ratio(r.SplitInstrs, r.Instrs), "ratio")
	add("core.merged_cycle_ratio", ratio(r.MergedCycles, r.Cycles), "ratio")
	add("bpred.branches", float64(r.Branches), "count")
	add("bpred.mispredict_ratio", ratio(r.BranchMispredicts, r.Branches), "ratio")

	perSweep := func(key string) float64 {
		xs := make([]float64, len(in.sweeps))
		for i, sw := range in.sweeps {
			xs[i] = sw.counts[key]
		}
		return median0(xs)
	}
	var busy, tail, capacity time.Duration
	var encs, cps []float64
	cells, planned, encBytes := 0, 0, 0
	for _, sw := range in.sweeps {
		b, tl := occupancy(sw.cells, in.slots, sw.from, sw.to)
		busy += b
		tail += tl
		capacity += time.Duration(sw.to-sw.from) * time.Duration(in.slots)
		encs = append(encs, sw.encodeSec)
		cps = append(cps, float64(sw.ncells)/sw.secs)
		cells += sw.ncells
		planned, encBytes = sw.ncells, sw.encBytes
	}
	add("experiments.plan_s", in.planSecs, "s")
	add("sched.busy_ratio", ratio(int64(busy), int64(capacity)), "ratio")
	add("sched.tail_s", tail.Seconds()/float64(max(len(in.sweeps), 1)), "s")
	add("schema.encode_s", median0(encs), "s")
	add("schema.decode_s", median0(in.decodeSecs), "s")
	add("schema.bytes", float64(encBytes), "bytes")
	gets, hits := perSweep("rcache.gets"), perSweep("rcache.hits")
	add("rcache.gets", gets, "count")
	add("rcache.hits", hits, "count")
	add("rcache.hit_ratio", ratio(int64(hits), int64(gets)), "ratio")
	add("rcache.get_s", perSweep("rcache.get_s"), "s")
	add("rcache.puts", perSweep("rcache.puts"), "count")
	add("rcache.put_s", perSweep("rcache.put_s"), "s")
	add("rcache.bytes", perSweep("rcache.bytes"), "bytes")
	add("server.requests", perSweep("server.requests"), "count")
	add("server.handler_s", perSweep("server.handler_s"), "s")
	add("server.rejected", perSweep("server.rejected"), "count")
	add("shard.job_s", perSweep("shard.job_s"), "s")
	add("shard.retries", perSweep("shard.retries"), "count")
	add("shard.steals", perSweep("shard.steals"), "count")
	add("http.requests_per_cell", ratio(int64(perSweep("http.requests")), int64(planned)), "ratio")
	add("http.rtt_s", perSweep("http.rtt_s"), "s")
	add("http.bytes_in", perSweep("http.bytes_in"), "bytes")
	add("go.alloc_bytes_per_cell", ratio(int64(in.ms1.TotalAlloc-in.ms0.TotalAlloc), int64(cells)), "bytes")
	add("go.gc_cycles", float64(in.ms1.NumGC-in.ms0.NumGC), "count")
	add("go.gc_pause_s", float64(in.ms1.PauseTotalNs-in.ms0.PauseTotalNs)/1e9, "s")

	// Self time per layer from the traced pass's profile: CPU seconds per
	// layer plus the idle remainder add up to wall time x CPUs.
	self := selfSeconds(in.samples)
	var sum float64
	for _, l := range profileLayers {
		add(l+".self_s", self[l], "s")
		sum += self[l]
	}
	capS := in.wall * float64(in.cpus)
	add("idle_s", capS-sum, "s")
	add("trace.wall_s", in.wall, "s")
	add("trace.capacity_s", capS, "s")
	add("trace.untraced_cells_per_s", median0(cps), "cells/s")
	traced := 0.0
	if in.wall > 0 {
		traced = float64(in.tracedCells) / in.wall
	}
	add("trace.traced_cells_per_s", traced, "cells/s")
	add("report.paper_speedup_err_pp", in.paperErr, "pp")
	return ms
}

// perLayerUnits lists every per-layer metric as "name unit".
func perLayerUnits() []string {
	var out []string
	for _, m := range layerMetrics(layerInputs{sims: &simTotals{}, ms0: &runtime.MemStats{}, ms1: &runtime.MemStats{}}) {
		out = append(out, m.Name+" "+m.Unit)
	}
	return out
}

// median0 is median with 0 for no samples.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// planSeconds times resolving the workload's plan into cells, the
// experiments layer's planning step (median of several resolutions).
func planSeconds(w runner) (float64, error) {
	svc, err := vexsmt.New(vexsmt.WithScale(benchScale), vexsmt.WithWorkloadDir(corpusDir))
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < 9; i++ {
		start := time.Now()
		if _, err := svc.PlanCells(w.plan()); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

func loadSeconds(w runner) []float64 {
	if c, ok := w.(*corpusReplay); ok {
		return c.loadSecs
	}
	return nil
}

func medianSweep(sweeps []sweep) float64 {
	secs := make([]float64, len(sweeps))
	for i, s := range sweeps {
		secs[i] = s.secs
	}
	return median(secs)
}

// simTotals sums what the rebuilt simulators did.
type simTotals struct {
	run                            stats.Run
	runNs, buildNs, nextNs, replNs int64
	instrsGen, instrsRepl          int64
	generators                     int64
	distinct                       int
}

// rebuildAll re-simulates every cell of ref through the public simulator
// calls and checks each run against ref.
func rebuildAll(ctx context.Context, ref *vexsmt.ResultSet, e env) (*simTotals, tally, error) {
	var (
		mu      sync.Mutex
		tot     simTotals
		streams = map[string]bool{}
		bad     int
	)
	err := sched.ForEach(ctx, e.par, len(ref.Cells), func(i int) error {
		c := ref.Cells[i]
		cellStart := e.rec.now()
		cellSpan := e.rec.reserve()
		var nextNs, instrs, buildNs int64
		s, keys, err := rebuild(c, &nextNs, &instrs, &buildNs)
		if err != nil {
			return fmt.Errorf("rebuild %s: %w", cellID(c), err)
		}
		runStart := e.rec.now()
		r, err := s.RunContext(ctx)
		runEnd := e.rec.now()
		if err != nil {
			return fmt.Errorf("rerun %s: %w", cellID(c), err)
		}
		e.rec.add(cellSpan, "sim.run", cellID(c), runStart, runEnd)
		e.rec.addReserved(cellSpan, 0, "cell.rebuild", cellID(c), cellStart, runEnd)
		mu.Lock()
		defer mu.Unlock()
		if countersOf(r) != c.Counters {
			bad++
		}
		addRun(&tot.run, r)
		tot.runNs += runEnd - runStart
		tot.buildNs += buildNs
		if c.Workload != "" {
			tot.replNs += nextNs
			tot.instrsRepl += instrs
		} else {
			tot.nextNs += nextNs
			tot.instrsGen += instrs
			tot.generators += int64(len(keys))
		}
		for _, k := range keys {
			streams[k] = true
		}
		return nil
	})
	tot.distinct = len(streams)
	return &tot, tally{attempted: len(ref.Cells), failed: bad}, err
}

// rebuild builds one cell's simulator the way the Service does, from the
// cell's public identity, with every job's stream wrapped for timing. It
// returns the identities of the synthetic streams it generated.
func rebuild(c vexsmt.CellResult, nextNs, instrs, buildNs *int64) (*sim.Simulator, []string, error) {
	tech, err := core.ParseTechnique(c.Technique)
	if err != nil {
		return nil, nil, err
	}
	cfg := sim.DefaultConfig(tech, c.Threads).WithScale(benchScale)
	cfg.Seed = c.Seed
	cfg.Predictor = c.Predictor
	var jobs []*sim.Job
	var keys []string
	if c.Workload != "" {
		tr, ok := wstore.Shared().Resolve(c.Workload)
		if !ok {
			return nil, nil, fmt.Errorf("workload %s not loaded", c.Workload)
		}
		for i := 0; i < c.Threads; i++ {
			r, err := tr.NewReplayer()
			if err != nil {
				return nil, nil, err
			}
			jobs = append(jobs, sim.NewJob(timedStream{r, nextNs, instrs}, cfg.ScaleDiv))
		}
	} else {
		mix, err := workload.MixByLabel(c.Mix)
		if err != nil {
			return nil, nil, err
		}
		profs, err := mix.Profiles()
		if err != nil {
			return nil, nil, err
		}
		for _, p := range profs {
			// The per-job seed mix sim.NewWorkload applies.
			p.Seed ^= cfg.Seed * 0x9E3779B97F4A7C15
			start := time.Now()
			g, err := synth.NewGenerator(p, cfg.Geom)
			*buildNs += int64(time.Since(start))
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, fmt.Sprintf("%s/%d", p.Name, p.Seed))
			jobs = append(jobs, sim.NewJob(timedStream{g, nextNs, instrs}, cfg.ScaleDiv))
		}
	}
	s, err := sim.New(cfg, jobs)
	return s, keys, err
}

// countersOf mirrors the Service's conversion of a run's counters.
func countersOf(r *stats.Run) vexsmt.Counters {
	return vexsmt.Counters{
		Cycles: r.Cycles, Instrs: r.Instrs, Ops: r.Ops, IssueSlots: r.IssueSlots,
		EmptyCycles: r.EmptyCycles, MergedCycles: r.MergedCycles, SplitInstrs: r.SplitInstrs,
		ICacheAccesses: r.ICacheAccesses, ICacheMisses: r.ICacheMisses,
		DCacheAccesses: r.DCacheAccesses, DCacheMisses: r.DCacheMisses,
		FetchStallCycles: r.FetchStallCycles, MemStallCycles: r.MemStallCycles,
		BranchStallCycles: r.BranchStallCycles, MemPortStallCycles: r.MemPortStallCycles,
		ContextSwitches: r.ContextSwitches, Respawns: r.Respawns,
		Branches: r.Branches, BranchMispredicts: r.BranchMispredicts,
	}
}

func addRun(dst, r *stats.Run) {
	dst.Cycles += r.Cycles
	dst.Instrs += r.Instrs
	dst.Ops += r.Ops
	dst.EmptyCycles += r.EmptyCycles
	dst.MergedCycles += r.MergedCycles
	dst.SplitInstrs += r.SplitInstrs
	dst.ICacheAccesses += r.ICacheAccesses
	dst.ICacheMisses += r.ICacheMisses
	dst.DCacheAccesses += r.DCacheAccesses
	dst.DCacheMisses += r.DCacheMisses
	dst.Branches += r.Branches
	dst.BranchMispredicts += r.BranchMispredicts
}
