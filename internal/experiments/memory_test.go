package experiments

import (
	"runtime"
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/sim"
	"vexsmt/internal/synth"
)

// TestSweepRetainsOnlyCounters prefetches the Figures 14-16 grid on a
// fresh Matrix and bounds what the finished sweep keeps reachable: its
// counters and the shared layout table, ~17 MiB in all. A memo that kept
// a pointer into each simulator instead of a copy of its run would keep
// all 144 simulators alive — ~185 MiB when every simulator built its own
// layouts, and still ~10 MiB of caches, engines and buffers beyond the
// layout table with shared ones. The second bound catches the latter.
func TestSweepRetainsOnlyCounters(t *testing.T) {
	const (
		bound       = 32 << 20 // the whole finished sweep
		beyondBound = 4 << 20  // what it keeps besides its layouts
	)
	plan, err := PlanFigures("14", "15", "16")
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	m := NewMatrix(detScale, 1)
	if err := m.Prefetch(ctx, plan); err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	if m.Cells() != plan.Len() {
		t.Fatalf("memoized %d cells, want %d", m.Cells(), plan.Len())
	}

	// Size the layout table alone by building an identical one.
	before = liveHeap()
	var table synth.LayoutTable
	for s := range gridStreams(t, m, plan) {
		if _, err := table.Layout(s.prof, s.geom); err != nil {
			t.Fatal(err)
		}
	}
	layouts := liveHeap() - before
	runtime.KeepAlive(&table)
	runtime.KeepAlive(m)

	mib := func(b int64) float64 { return float64(b) / (1 << 20) }
	t.Logf("%d cells retain %.1f MiB, of which layouts %.1f MiB", plan.Len(), mib(retained), mib(layouts))
	if retained >= bound {
		t.Errorf("finished sweep retains %.1f MiB, want < %d MiB", mib(retained), bound>>20)
	}
	if retained-layouts >= beyondBound {
		t.Errorf("finished sweep retains %.1f MiB beyond its layouts, want < %d MiB",
			mib(retained-layouts), beyondBound>>20)
	}
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// stream identifies one job stream: its profile after sim.NewWorkload's
// per-job seed mix, on the cell's geometry — the layout table's key.
type stream struct {
	prof synth.Profile
	geom isa.Geometry
}

// gridStreams returns the distinct job streams of a plan's cells.
func gridStreams(t *testing.T, m *Matrix, plan *Plan) map[stream]bool {
	t.Helper()
	streams := make(map[stream]bool)
	for _, c := range plan.Cells() {
		cfg := m.cellConfig(c)
		profs, err := c.Mix.Profiles()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range profs {
			p.Seed ^= cfg.Seed * 0x9E3779B97F4A7C15
			streams[stream{p, cfg.Geom}] = true
		}
	}
	return streams
}

// TestGridSharesLayouts checks the Matrix's layout table on the Figures
// 14-16 grid: every distinct job stream's layout is built exactly once,
// however many techniques and workers run it, and sharing changes no
// result.
func TestGridSharesLayouts(t *testing.T) {
	plan, err := PlanFigures("14", "15", "16")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix(detScale, 1, WithParallelism(4))
	if err := m.Prefetch(ctx, plan); err != nil {
		t.Fatal(err)
	}

	streams := gridStreams(t, m, plan)
	if len(streams) != 72 {
		t.Fatalf("grid has %d distinct job streams, want 72 (9 mixes x 2 thread counts x 4 jobs)", len(streams))
	}
	if b := m.layouts.Builds(); b != int64(len(streams)) {
		t.Fatalf("built %d layouts for %d distinct job streams", b, len(streams))
	}

	res := m.Results()
	if len(res) != plan.Len() {
		t.Fatalf("results: %d, want %d", len(res), plan.Len())
	}
	for _, c := range plan.Cells() {
		profs, err := c.Mix.Profiles()
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.NewWorkload(m.cellConfig(c), profs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res[c] != *want {
			t.Errorf("%s: shared-layout run differs from a private one:\nshared:  %+v\nprivate: %+v", c, res[c], *want)
		}
	}
}
