// Package experiments orchestrates the paper's evaluation (Section VI):
// the single-thread benchmark characterization of Figure 13(a) and the
// 2-thread/4-thread multithreading sweeps behind Figures 14, 15 and 16.
//
// The evaluation is a grid of independent (mix, technique, thread-count)
// simulations, organized plan-then-execute: a Plan enumerates and dedups
// the cells a set of figures needs, and a Matrix executes them over a
// bounded worker pool with singleflight memoization, so the three figures
// share the same simulations — exactly as in the paper — while saturating
// the machine. Per-cell seeds derive from the cell's workload identity
// (internal/rng), so parallel and serial runs are bit-identical and
// technique-vs-baseline comparisons stay paired.
package experiments

import (
	"context"
	"fmt"

	"vexsmt/internal/core"
	"vexsmt/internal/sim"
	"vexsmt/internal/stats"
	"vexsmt/internal/synth"
	"vexsmt/internal/workload"
	"vexsmt/pkg/vexsmt/sched"
)

// ---------------------------------------------------------------------------
// Figure 13(a)

// Fig13Row pairs paper-reported and measured single-thread IPC.
type Fig13Row struct {
	Name                 string
	Class                synth.ILPClass
	PaperIPCr, PaperIPCp float64
	IPCr, IPCp           float64
}

// Figure13a measures every benchmark single-threaded with real and perfect
// memory. Benchmarks are independent, so they run concurrently over at
// most parallel workers (< 1 selects GOMAXPROCS); the row order is the
// paper's table order regardless of completion order.
func Figure13a(ctx context.Context, scale int64, parallel int) ([]Fig13Row, error) {
	paper := workload.PaperFigure13a()
	rows := make([]Fig13Row, len(paper))
	err := sched.ForEach(ctx, parallel, len(paper), func(i int) error {
		pr := paper[i]
		prof, ok := synth.ByName(pr.Name)
		if !ok {
			return fmt.Errorf("experiments: no profile for %s", pr.Name)
		}
		ipcr, ipcp, err := sim.MeasuredIPC(prof, scale)
		if err != nil {
			return err
		}
		rows[i] = Fig13Row{
			Name: pr.Name, Class: pr.Class,
			PaperIPCr: pr.IPCr, PaperIPCp: pr.IPCp,
			IPCr: ipcr, IPCp: ipcp,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figures 14 and 15: per-workload speedups

// SpeedupSeries is one bar group: speedup percentage per workload plus the
// average, for one (technique, baseline, thread count) combination.
type SpeedupSeries struct {
	Label     string // e.g. "CCSI AS over CSMT, 4-Thread"
	Tech      core.Technique
	Baseline  core.Technique
	Threads   int
	Workloads []string
	Pct       []float64 // per workload, same order as Workloads
	Avg       float64
}

// Speedups computes one series across all nine mixes: both techniques'
// cells are prefetched in parallel, then the series assembles from the
// memoized results.
func (m *Matrix) Speedups(ctx context.Context, tech, baseline core.Technique, threads int) (SpeedupSeries, error) {
	s := SpeedupSeries{
		Label: fmt.Sprintf("%s over %s, %d-Thread", tech.Name(), baseline.Name(), threads),
		Tech:  tech, Baseline: baseline, Threads: threads,
	}
	p := NewPlan()
	p.AddMixSweep(tech, threads)
	p.AddMixSweep(baseline, threads)
	if err := m.Prefetch(ctx, p); err != nil {
		return s, err
	}
	var sum float64
	for _, mix := range workload.Figure13b() {
		rt, err := m.Run(ctx, mix, tech, threads)
		if err != nil {
			return s, err
		}
		rb, err := m.Run(ctx, mix, baseline, threads)
		if err != nil {
			return s, err
		}
		pct := stats.SpeedupPct(rt, rb)
		s.Workloads = append(s.Workloads, mix.Label)
		s.Pct = append(s.Pct, pct)
		sum += pct
	}
	s.Avg = sum / float64(len(s.Pct))
	return s, nil
}

// Figure14 returns the four series of the paper's Figure 14: CCSI NS and
// CCSI AS over CSMT, for 2-thread and 4-thread machines. The whole grid is
// prefetched concurrently before the series assemble.
func (m *Matrix) Figure14(ctx context.Context) ([]SpeedupSeries, error) {
	p := NewPlan()
	p.AddFigure14()
	if err := m.Prefetch(ctx, p); err != nil {
		return nil, err
	}
	var out []SpeedupSeries
	for _, threads := range figureThreadCounts() {
		for _, comm := range []core.CommPolicy{core.CommNoSplit, core.CommAlwaysSplit} {
			s, err := m.Speedups(ctx, core.CCSI(comm), core.CSMT(), threads)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// Figure15 returns the eight series of the paper's Figure 15: COSI NS/AS
// and OOSI NS/AS over SMT, for 2-thread and 4-thread machines.
func (m *Matrix) Figure15(ctx context.Context) ([]SpeedupSeries, error) {
	p := NewPlan()
	p.AddFigure15()
	if err := m.Prefetch(ctx, p); err != nil {
		return nil, err
	}
	var out []SpeedupSeries
	for _, threads := range figureThreadCounts() {
		for _, tech := range []core.Technique{
			core.COSI(core.CommNoSplit), core.COSI(core.CommAlwaysSplit),
			core.OOSI(core.CommNoSplit), core.OOSI(core.CommAlwaysSplit),
		} {
			s, err := m.Speedups(ctx, tech, core.SMT(), threads)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 16: absolute IPC of every technique

// IPCPoint is one bar of Figure 16.
type IPCPoint struct {
	Tech    core.Technique
	Threads int
	IPC     float64 // average over the nine workloads
}

// Figure16 returns average IPC for the eight techniques at 2 and 4 threads,
// in the paper's presentation order.
func (m *Matrix) Figure16(ctx context.Context) ([]IPCPoint, error) {
	p := NewPlan()
	p.AddFigure16()
	if err := m.Prefetch(ctx, p); err != nil {
		return nil, err
	}
	var out []IPCPoint
	for _, threads := range figureThreadCounts() {
		for _, tech := range core.AllTechniques() {
			var sum float64
			for _, mix := range workload.Figure13b() {
				r, err := m.Run(ctx, mix, tech, threads)
				if err != nil {
					return nil, err
				}
				sum += r.IPC()
			}
			out = append(out, IPCPoint{Tech: tech, Threads: threads,
				IPC: sum / float64(len(workload.Figure13b()))})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Thread scaling (not a paper figure; supports the Section I motivation)

// ScalePoint is one point of a thread-count scaling study.
type ScalePoint struct {
	Threads int
	IPC     float64
}

// ThreadScaling measures one mix under one technique across thread counts
// over at most parallel workers (< 1 selects GOMAXPROCS).
// Points run concurrently; all share the caller's seed so every point sees
// identical workload streams and the curve isolates the thread-count
// effect (each point's simulator owns its random stream, so sharing the
// seed is parallel-safe). Identical streams also mean identical code
// layouts, so the points share one layout per job.
func ThreadScaling(ctx context.Context, mix workload.Mix, tech core.Technique, threadCounts []int, scale int64, seed uint64, parallel int) ([]ScalePoint, error) {
	out := make([]ScalePoint, len(threadCounts))
	var layouts synth.LayoutTable
	err := sched.ForEach(ctx, parallel, len(threadCounts), func(i int) error {
		th := threadCounts[i]
		cfg := sim.DefaultConfig(tech, th).WithScale(scale)
		cfg.Seed = seed
		profs, err := mix.Profiles()
		if err != nil {
			return err
		}
		s, err := sim.NewWorkloadShared(cfg, profs, &layouts)
		if err != nil {
			return err
		}
		r, err := s.RunContext(ctx)
		if err != nil {
			return err
		}
		out[i] = ScalePoint{Threads: th, IPC: r.IPC()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
