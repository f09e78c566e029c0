package synth

import (
	"sync"
	"sync/atomic"

	"vexsmt/internal/isa"
)

// LayoutTable memoizes code layouts by (profile, geometry), so every run
// over the same job stream shares one immutable Layout instead of
// rebuilding it. It is safe for concurrent use: concurrent requests for
// one key build it exactly once, and the others wait for that build. The
// zero value is ready to use and allocates nothing until its first
// lookup. Entries, including failed builds, live as long as the table.
type LayoutTable struct {
	mu     sync.Mutex
	m      map[layoutKey]*layoutEntry
	builds atomic.Int64
}

type layoutKey struct {
	prof Profile
	geom isa.Geometry
}

type layoutEntry struct {
	once   sync.Once
	layout *Layout
	err    error
}

// Layout returns the table's layout for prof on geom, building it on
// first use.
func (t *LayoutTable) Layout(prof Profile, geom isa.Geometry) (*Layout, error) {
	k := layoutKey{prof, geom}
	t.mu.Lock()
	e, ok := t.m[k]
	if !ok {
		if t.m == nil {
			t.m = make(map[layoutKey]*layoutEntry)
		}
		e = &layoutEntry{}
		t.m[k] = e
	}
	t.mu.Unlock()
	e.once.Do(func() {
		e.layout, e.err = NewLayout(prof, geom)
		t.builds.Add(1)
	})
	return e.layout, e.err
}

// Builds returns how many layouts the table has built. Each key builds
// once, so this equals the number of distinct keys looked up.
func (t *LayoutTable) Builds() int64 { return t.builds.Load() }
