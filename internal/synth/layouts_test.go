package synth

import (
	"sync"
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
)

// TestSharedLayoutMatchesPrivate runs two generators over one shared
// Layout, interleaving NextN and Reset(variant) calls between them, and
// requires each to produce exactly the stream of a generator that built
// its own layout. A generator that wrote to its layout, or kept dynamic
// state in it, would leak one stream into the other.
func TestSharedLayoutMatchesPrivate(t *testing.T) {
	for _, prof := range Catalog() {
		l, err := NewLayout(prof, isa.ST200x4)
		if err != nil {
			t.Fatal(err)
		}
		shared := [2]*Generator{l.NewGenerator(), l.NewGenerator()}
		private := [2]*Generator{MustNewGenerator(prof, isa.ST200x4), MustNewGenerator(prof, isa.ST200x4)}
		r := rng.New(prof.Seed + 7)
		got := make([]TInst, 257)
		want := make([]TInst, 257)
		for step := 0; step < 400; step++ {
			i := r.Intn(2)
			if r.Intn(16) == 0 {
				v := uint64(r.Intn(8))
				shared[i].Reset(v)
				private[i].Reset(v)
				continue
			}
			n := 1 + r.Intn(len(got))
			shared[i].NextN(got[:n])
			private[i].NextN(want[:n])
			for k := 0; k < n; k++ {
				if got[k] != want[k] {
					t.Fatalf("%s: generator %d, step %d, instruction %d: shared layout\n%+v\nprivate layout\n%+v",
						prof.Name, i, step, k, got[k], want[k])
				}
			}
		}
	}
}

// TestLayoutTableBuildsOnce asks one table for the same keys from many
// goroutines at once: every caller of a key gets the same Layout, and each
// key is built exactly once.
func TestLayoutTableBuildsOnce(t *testing.T) {
	var table LayoutTable
	profs := Catalog()[:4]
	const callers = 8
	got := make([][]*Layout, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, p := range profs {
				l, err := table.Layout(p, isa.ST200x4)
				if err != nil {
					t.Error(err)
					return
				}
				got[c] = append(got[c], l)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for c := 1; c < callers; c++ {
		for i := range profs {
			if got[c][i] != got[0][i] {
				t.Fatalf("caller %d got a different layout for %s", c, profs[i].Name)
			}
		}
	}
	if b := table.Builds(); b != int64(len(profs)) {
		t.Fatalf("built %d layouts for %d keys", b, len(profs))
	}
	// The geometry is part of the key.
	narrow := isa.ST200x4
	narrow.Clusters = 2
	if _, err := table.Layout(profs[0], narrow); err != nil {
		t.Fatal(err)
	}
	if b := table.Builds(); b != int64(len(profs))+1 {
		t.Fatalf("built %d layouts after a new geometry, want %d", b, len(profs)+1)
	}
}
