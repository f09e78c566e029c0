package sim

import (
	"vexsmt/internal/core"
	"vexsmt/internal/stats"
	"vexsmt/internal/synth"
)

// SingleThreadConfig returns the configuration for the Figure 13(a)
// single-thread measurements: one context, no multitasking, technique
// irrelevant (nothing to merge with).
func SingleThreadConfig(perfectMemory bool, scaleDiv int64) Config {
	cfg := DefaultConfig(core.SMT(), 1).WithScale(scaleDiv)
	cfg.PerfectMemory = perfectMemory
	cfg.TimesliceCycles = 0 // single job, no multitasking needed
	return cfg
}

// RunSingle measures one benchmark, given by its code layout, on the
// single-thread machine; it runs min(LimitInstrs, one full benchmark
// length) instructions.
func RunSingle(l *synth.Layout, perfectMemory bool, scaleDiv int64) (*stats.Run, error) {
	cfg := SingleThreadConfig(perfectMemory, scaleDiv)
	job := NewJob(l.NewGenerator(), cfg.ScaleDiv)
	if job.remaining < cfg.LimitInstrs {
		cfg.LimitInstrs = job.remaining
		cfg.WarmupInstrs = cfg.LimitInstrs / 10
	}
	// Cover at least one full pass over the benchmark's code so compulsory
	// ICache misses do not distort the scaled-down measurement.
	if wrap := l.CodeCycleInstrs() * 5 / 4; wrap > cfg.WarmupInstrs {
		cfg.WarmupInstrs = wrap
		if max := cfg.LimitInstrs / 2; cfg.WarmupInstrs > max {
			cfg.WarmupInstrs = max
		}
	}
	s, err := New(cfg, []*Job{job})
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// MeasuredIPC reports a benchmark's simulated IPCr and IPCp at the given
// scale (the reproduction of one Figure 13(a) row). Both runs share one
// code layout: memory modelling does not change the geometry.
func MeasuredIPC(prof synth.Profile, scaleDiv int64) (ipcr, ipcp float64, err error) {
	l, err := synth.NewLayout(prof, SingleThreadConfig(false, scaleDiv).Geom)
	if err != nil {
		return 0, 0, err
	}
	real, err := RunSingle(l, false, scaleDiv)
	if err != nil {
		return 0, 0, err
	}
	perfect, err := RunSingle(l, true, scaleDiv)
	if err != nil {
		return 0, 0, err
	}
	return real.IPC(), perfect.IPC(), nil
}
