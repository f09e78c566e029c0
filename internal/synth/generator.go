package synth

import (
	"fmt"

	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
)

// TInst is one trace instruction: the resource demand the issue engine
// needs plus the addresses the cache models need. It carries no operand
// values — a statically scheduled VLIW's timing does not depend on them.
type TInst struct {
	Demand   isa.InstrDemand
	PC       uint64
	Size     uint32
	Taken    bool // instruction ends with a taken branch
	IsBranch bool // instruction ends with a conditional branch (taken or not)
	MemAddr  [isa.MaxClusters]uint64
}

// Stream produces a deterministic instruction trace.
type Stream interface {
	// Next fills t with the next instruction of the trace.
	Next(t *TInst)
	// Reset restarts the trace; variant perturbs dynamic behaviour (data
	// addresses, iteration counts) so a respawned benchmark does not replay
	// bit-identically, while code layout stays fixed.
	Reset(variant uint64)
	// Length returns the number of instructions to completion at the given
	// scale divisor (paper scale: divisor 1 -> hundreds of millions).
	Length(scaleDiv int64) int64
	// Name identifies the benchmark.
	Name() string
}

// BatchStream is an optional Stream extension for producers that can fill
// whole instruction runs at once. NextN(out) must be exactly equivalent to
// len(out) successive Next calls; batching exists so a fetch loop can
// amortize the per-instruction interface dispatch over basic-block-sized
// runs.
type BatchStream interface {
	Stream
	// NextN fills out with the next len(out) instructions of the trace.
	NextN(out []TInst)
}

// BatchSize is the recommended refill size for prefetch buffers drawing
// from a Stream: roughly one basic-block run, big enough to amortize the
// per-instruction interface dispatch of Next. Consumers must clamp a
// refill to the current spawn (respawn boundaries fall mid-refill
// otherwise), which also bounds how far a buffer can run ahead of what a
// context will consume — the event-driven run loop jumps the clock over
// dead cycles, but each context still drains its buffer strictly in trace
// order, so larger batches buy nothing once dispatch is amortized.
const BatchSize = 64

// FillN fills out from s, using the batch path when s implements
// BatchStream and falling back to per-instruction Next calls otherwise.
// Either way the consumed trace prefix is identical.
func FillN(s Stream, out []TInst) {
	if b, ok := s.(BatchStream); ok {
		b.NextN(out)
		return
	}
	for i := range out {
		s.Next(&out[i])
	}
}

// codeBase separates benchmark code layouts so per-thread ICache streams
// do not alias by construction; the generator offsets by a seed-derived
// amount as well.
const codeBase = 0x0040_0000

// dataBase is where each benchmark's data footprint starts.
const dataBase = 0x2000_0000

// template is one precomputed body instruction of a loop region. Templates
// are deterministic per (profile, region, position), so every iteration of
// a loop re-fetches the same addresses — the property the ICache model
// depends on.
type template struct {
	demand isa.InstrDemand
	pc     uint64
	size   uint32
	brKind uint8 // 0 none, 1 inner conditional, 2 back-edge
	skip   uint8 // inner-branch forward skip (instructions)
}

const (
	brNone     = 0
	brInner    = 1
	brBackEdge = 2
)

// region is one loop nest of the synthetic program.
type region struct {
	body      []template
	meanIters int
}

// Layout is the immutable code layout of one profile on one geometry: its
// loop regions and their instruction templates, derived purely from the
// profile seed. A Layout is never written after NewLayout returns, so any
// number of generators on any number of goroutines may share one; all
// dynamic state lives in the Generator.
type Layout struct {
	prof    Profile
	geom    isa.Geometry
	regions []region
}

// NewLayout validates a profile against the geometry and builds its code
// layout.
func NewLayout(prof Profile, geom isa.Geometry) (*Layout, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if prof.MeanOps < 1 || prof.MeanOps > float64(geom.TotalIssueWidth()) {
		return nil, fmt.Errorf("synth: %s: mean ops %.2f outside [1,%d]",
			prof.Name, prof.MeanOps, geom.TotalIssueWidth())
	}
	if prof.LoopInstrs <= 0 || prof.LoopIters <= 0 {
		return nil, fmt.Errorf("synth: %s: loop shape must be positive", prof.Name)
	}
	l := &Layout{prof: prof, geom: geom}
	l.buildRegions()
	return l, nil
}

// NewGenerator starts a fresh trace over the layout, primed as after
// Reset(0). It allocates only the generator's dynamic state.
func (l *Layout) NewGenerator() *Generator {
	g := &Generator{prof: l.prof, geom: l.geom, regions: l.regions}
	g.Reset(0)
	return g
}

// CodeCycleInstrs estimates the instructions executed per full pass over
// the benchmark's code footprint (every region, every iteration). Warmup
// phases should cover at least one pass so compulsory ICache misses do not
// bias short scaled-down measurements.
func (l *Layout) CodeCycleInstrs() int64 {
	var total int64
	for _, reg := range l.regions {
		total += int64(len(reg.body)) * int64(reg.meanIters)
	}
	return total
}

// Generator implements Stream for a benchmark profile. The profile,
// geometry and region slice are copies of its Layout's (the regions alias
// the shared, read-only templates), kept inline so the hot path reads them
// without an extra indirection.
type Generator struct {
	prof    Profile
	geom    isa.Geometry
	regions []region

	dyn       *rng.Rand // dynamic decisions: taken, iteration counts, data addresses
	ri        int       // current region
	pos       int       // position in region body
	itersLeft int
	streamPos uint64
}

// NewGenerator builds the (deterministic) code layout for a profile on the
// given geometry and primes the dynamic state: NewLayout followed by
// Layout.NewGenerator. Callers that run the same profile more than once
// should keep the Layout instead.
func NewGenerator(prof Profile, geom isa.Geometry) (*Generator, error) {
	l, err := NewLayout(prof, geom)
	if err != nil {
		return nil, err
	}
	return l.NewGenerator(), nil
}

// MustNewGenerator panics on error (known-good catalog profiles).
func MustNewGenerator(prof Profile, geom isa.Geometry) *Generator {
	g, err := NewGenerator(prof, geom)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Stream.
func (g *Generator) Name() string { return g.prof.Name }

// Length implements Stream.
func (g *Generator) Length(scaleDiv int64) int64 {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	n := int64(g.prof.LengthMInstr * 1e6 / float64(scaleDiv))
	if n < 1 {
		n = 1
	}
	return n
}

// Reset implements Stream. It reseeds the dynamic generator in place so a
// respawn allocates nothing.
func (g *Generator) Reset(variant uint64) {
	seed := g.prof.Seed*0x9e37_79b9 + 0xd1b5_4a32 + variant*0x100_0001b3
	if g.dyn == nil {
		g.dyn = rng.New(seed)
	} else {
		g.dyn.Seed(seed)
	}
	g.ri = 0
	g.pos = 0
	g.itersLeft = g.jitterIters(g.regions[0].meanIters)
	g.streamPos = 0
}

// buildRegions lays out loop regions until the code footprint reaches
// CodeKB. Layout is derived purely from the profile seed.
func (l *Layout) buildRegions() {
	layout := rng.New(l.prof.Seed ^ 0xc0de_5eed)
	pc := uint64(codeBase) + (l.prof.Seed%64)*4096
	targetBytes := uint64(l.prof.CodeKB) * 1024
	var total uint64
	for total < targetBytes || len(l.regions) == 0 {
		bodyLen := l.prof.LoopInstrs/2 + layout.Intn(l.prof.LoopInstrs+1)
		if bodyLen < 2 {
			bodyLen = 2
		}
		vecLen := 0
		if l.prof.BurstProb > 0 {
			// SLAP-style variable vector length: each region is one
			// strip-mined vector loop with its own VL, a multiple of the
			// per-cluster issue width up to the full machine width. The
			// draw is guarded so BurstProb==0 profiles consume an
			// unchanged layout-RNG stream.
			w := l.geom.IssueWidth
			vecLen = w * (1 + layout.Intn(l.geom.Clusters))
		}
		reg := region{body: make([]template, 0, bodyLen), meanIters: l.prof.LoopIters}
		for i := 0; i < bodyLen; i++ {
			last := i == bodyLen-1
			t := l.buildTemplate(layout, pc, last, bodyLen-1-i, vecLen)
			reg.body = append(reg.body, t)
			pc += uint64(t.size)
			total += uint64(t.size)
		}
		l.regions = append(l.regions, reg)
	}
}

// buildTemplate synthesizes one compiler-legal instruction template. A
// non-zero vecLen marks the enclosing region as a vector loop: templates
// then become wide-op bursts with probability BurstProb, occupying vecLen
// issue slots spread evenly across clusters (SIMD lane groups).
func (l *Layout) buildTemplate(r *rng.Rand, pc uint64, backEdge bool, room int, vecLen int) template {
	w := l.geom.IssueWidth
	maxOps := l.geom.TotalIssueWidth()
	burst := vecLen > 0 && r.Bool(l.prof.BurstProb)
	var ops int
	if burst {
		ops = vecLen
	} else {
		// ops ~ 1 + Binomial(maxOps-1, p) with mean MeanOps, compensated for
		// the ~2*CommProb ops the send/recv pairs add on average so the
		// measured ops/instruction lands on MeanOps.
		target := l.prof.MeanOps - 2*l.prof.CommProb
		if target < 1 {
			target = 1
		}
		p := (target - 1) / float64(maxOps-1)
		ops = 1
		for i := 0; i < maxOps-1; i++ {
			if r.Bool(p) {
				ops++
			}
		}
	}

	// Cluster assignment mimics Bottom-Up-Greedy: operations follow their
	// data. Placement is bimodal — dependence chains pack into one cluster
	// (dense bundles that cause operation-level resource conflicts between
	// threads), while independent operations spread across clusters (thin
	// bundles that cause partial cluster-level conflicts) — and the anchor
	// cluster wanders instruction to instruction. Both kinds of
	// variability are what give the merging hardware conflicts to resolve;
	// renaming alone cannot separate threads whose placements wander.
	// Vector bursts instead spread lane groups evenly over as many
	// clusters as the VL fills — the dense, slack-free placement a
	// vectorizing compiler emits.
	k := (ops + w - 1) / w
	if burst {
		if k > l.geom.Clusters {
			k = l.geom.Clusters
		}
	} else if !r.Bool(0.5) { // spread mode
		spread := l.prof.SpreadProb
		if spread == 0 {
			spread = 0.85
		}
		for k < l.geom.Clusters && k < ops && r.Bool(spread) {
			k++
		}
	}
	start := 0
	if r.Bool(0.5) {
		start = r.Intn(l.geom.Clusters)
	}
	var perCluster [isa.MaxClusters]int
	for i := 0; i < ops; i++ {
		perCluster[(start+i%k)%l.geom.Clusters]++
	}

	var d isa.InstrDemand
	memBudget := int(float64(ops)*l.prof.MemFrac + 0.5)
	mulBudget := int(float64(ops)*l.prof.MulFrac + 0.5)
	for j := 0; j < k; j++ {
		c := (start + j) % l.geom.Clusters
		n := perCluster[c]
		b := isa.BundleDemand{Ops: uint8(n)}
		if memBudget > 0 && l.geom.MemUnits > 0 && n > 0 {
			b.Mem = 1
			memBudget--
			n--
			if r.Bool(l.prof.StoreFrac) {
				b.Stor = true
			} else {
				b.Load = true
			}
		}
		for n > 0 && mulBudget > 0 && int(b.Mul) < l.geom.Muls {
			b.Mul++
			mulBudget--
			n--
		}
		b.ALU = uint8(n)
		d.B[c] = b
	}

	// Inter-cluster copy pair: one extra ALU-class op on two clusters.
	if l.geom.Clusters > 1 && r.Bool(l.prof.CommProb) {
		src := r.Intn(l.geom.Clusters)
		dst := (src + 1 + r.Intn(l.geom.Clusters-1)) % l.geom.Clusters
		for _, c := range []int{src, dst} {
			if int(d.B[c].Ops) < w && int(d.B[c].ALU) < l.geom.ALUs {
				d.B[c].Ops++
				d.B[c].ALU++
			}
			d.B[c].Comm = d.B[c].Ops > 0
		}
		d.HasComm = d.B[src].Comm || d.B[dst].Comm
		if d.HasComm {
			ops = d.NumOps()
		}
	}

	// Control flow: the branch operation is one of the instruction's
	// ALU-class operations (it needs no separate demand accounting; the
	// Taken flag carries the timing semantics).
	t := template{demand: d, pc: pc, size: uint32(4 * d.NumOps()), brKind: brNone}
	switch {
	case backEdge:
		t.brKind = brBackEdge
	case room > 0 && r.Bool(l.prof.BranchProb):
		t.brKind = brInner
		skip := 1 + r.Intn(3)
		if skip > room {
			skip = room
		}
		t.skip = uint8(skip)
	}
	if t.size == 0 {
		t.size = 4
	}
	return t
}

func (g *Generator) jitterIters(mean int) int {
	if mean <= 1 {
		return 1
	}
	// Uniform in [mean/2, 3*mean/2].
	lo := mean / 2
	if lo < 1 {
		lo = 1
	}
	return lo + g.dyn.Intn(mean+1)
}

// Next implements Stream.
func (g *Generator) Next(t *TInst) {
	g.step(&g.regions[g.ri], t)
}

// NextN implements BatchStream: it emits the next len(out) instructions in
// one call, caching the current loop region across the run so the template
// walk stays in registers. The produced trace is exactly what len(out)
// Next calls would have produced.
func (g *Generator) NextN(out []TInst) {
	ri := -1
	var reg *region
	for i := range out {
		if g.ri != ri {
			ri = g.ri
			reg = &g.regions[ri]
		}
		g.step(reg, &out[i])
	}
}

// step emits one instruction from the current position of reg (which must
// be &g.regions[g.ri]) and advances the trace's control flow.
func (g *Generator) step(reg *region, t *TInst) {
	tm := &reg.body[g.pos]
	t.Demand = tm.demand
	t.PC = tm.pc
	t.Size = tm.size
	t.Taken = false
	t.IsBranch = tm.brKind != brNone

	// Data addresses for the cache model.
	for c := 0; c < g.geom.Clusters; c++ {
		if tm.demand.B[c].Mem == 0 {
			t.MemAddr[c] = 0
			continue
		}
		if g.dyn.Bool(g.prof.StreamFrac) {
			wrap := uint64(g.prof.StreamKB) * 1024
			if wrap < 64 {
				wrap = 64
			}
			t.MemAddr[c] = dataBase + (g.streamPos % wrap)
			g.streamPos += 4
		} else {
			foot := uint64(g.prof.DataKB) * 1024
			if foot < 64 {
				foot = 64
			}
			t.MemAddr[c] = dataBase + uint64(g.prof.StreamKB)*1024 +
				(g.dyn.Uint64n(foot) &^ 3)
		}
	}

	// Advance control flow.
	switch tm.brKind {
	case brBackEdge:
		if g.itersLeft > 0 {
			g.itersLeft--
			t.Taken = true
			g.pos = 0
			return
		}
		// Loop exit: fall through to the next region; wrapping from the
		// last region back to the first is a taken jump.
		if g.ri == len(g.regions)-1 {
			t.Taken = true
		}
		g.ri = (g.ri + 1) % len(g.regions)
		g.pos = 0
		g.itersLeft = g.jitterIters(g.regions[g.ri].meanIters)
	case brInner:
		if g.dyn.Bool(g.prof.TakenProb) {
			t.Taken = true
			g.pos += int(tm.skip) + 1
			if g.pos >= len(reg.body) {
				g.pos = len(reg.body) - 1
			}
			return
		}
		g.pos++
	default:
		g.pos++
	}
	if g.pos >= len(reg.body) {
		g.pos = 0 // defensive; back-edge handling should prevent this
	}
}

// MeasuredShape summarizes a sample of the stream; used by calibration
// tests and cmd/tracegen.
type MeasuredShape struct {
	Instrs      int64
	Ops         int64
	TakenFrac   float64
	MemPerInstr float64
	CommFrac    float64
	OpsPerInstr float64
}

// Measure draws n instructions (without disturbing determinism guarantees —
// call Reset afterwards if reuse is intended) and reports aggregate shape.
func Measure(s Stream, n int64) MeasuredShape {
	var t TInst
	var sh MeasuredShape
	var taken, comm, mem int64
	for i := int64(0); i < n; i++ {
		s.Next(&t)
		sh.Instrs++
		sh.Ops += int64(t.Demand.NumOps())
		if t.Taken {
			taken++
		}
		if t.Demand.HasComm {
			comm++
		}
		for c := range t.MemAddr {
			if t.Demand.B[c].Mem > 0 {
				mem++
			}
		}
	}
	sh.TakenFrac = float64(taken) / float64(n)
	sh.CommFrac = float64(comm) / float64(n)
	sh.MemPerInstr = float64(mem) / float64(n)
	sh.OpsPerInstr = float64(sh.Ops) / float64(n)
	return sh
}
