package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vexsmt/internal/synth"
	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/shard"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch; Parent 0 marks a root; Cell names the grid
// cell the work belongs to, so the spans of one cell can be grouped.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder holds the spans of a traced run in memory until they are
// written out at the end. Span recording is switched on only for the
// traced phase; the wrappers keep their counters and latency samples
// either way, since the end-to-end latency metrics come from them.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span when recording is on.
func (r *recorder) add(parent uint64, name, cell string, start, end int64) {
	r.addReserved(r.reserve(), parent, name, cell, start, end)
}

// reserve hands out a span id ahead of the span's end, so children that
// finish first can name their parent.
func (r *recorder) reserve() uint64 {
	if !r.on.Load() {
		return 0
	}
	return r.ids.Add(1)
}

// addReserved records a span under an id obtained from reserve.
func (r *recorder) addReserved(id, parent uint64, name, cell string, start, end int64) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: start, End: end})
	r.mu.Unlock()
}

// writeFile dumps every recorded span as JSON.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is one cell's busy time in nanoseconds since the recorder epoch.
type interval struct{ start, end int64 }

// cellTimes collects per-cell latency samples and busy intervals.
type cellTimes struct {
	mu  sync.Mutex
	ivs []interval
}

func (c *cellTimes) add(start, end int64) {
	c.mu.Lock()
	c.ivs = append(c.ivs, interval{start, end})
	c.mu.Unlock()
}

// take returns the intervals recorded so far and starts afresh.
func (c *cellTimes) take() []interval {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.ivs
	c.ivs = nil
	return out
}

// latenciesMs converts intervals to millisecond latencies.
func latenciesMs(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = float64(iv.end-iv.start) / 1e6
	}
	return out
}

// occupancy summarizes how full a pool of slots was over [from, to]:
// busy is the summed cell time clipped to the window, and tail is the
// time fewer than slots cells were in flight.
func occupancy(ivs []interval, slots int, from, to int64) (busy, tail time.Duration) {
	type ev struct {
		t int64
		d int
	}
	evs := make([]ev, 0, 2*len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, from), min(iv.end, to)
		if e <= s {
			continue
		}
		busy += time.Duration(e - s)
		evs = append(evs, ev{s, +1}, ev{e, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		return evs[i].t < evs[j].t || (evs[i].t == evs[j].t && evs[i].d < evs[j].d)
	})
	inFlight, last := 0, from
	for _, e := range evs {
		if inFlight < slots {
			tail += time.Duration(e.t - last)
		}
		inFlight += e.d
		last = e.t
	}
	if inFlight < slots {
		tail += time.Duration(to - last)
	}
	return busy, tail
}

// opStats counts and times the calls through one wrapper.
type opStats struct {
	calls, ns, bytes atomic.Int64
}

func (o *opStats) note(start, end int64, bytes int) {
	o.calls.Add(1)
	o.ns.Add(end - start)
	o.bytes.Add(int64(bytes))
}

// probeCache decorates a vexsmt.CellCache. It counts and times every Get
// and Put, and it turns a Get miss followed by the Put of the same key
// into one cell's latency: the Service consults the cache just before it
// simulates a cell and stores the result just after, so the pair brackets
// the cell's whole simulation without any seam inside the Service.
type probeCache struct {
	inner vexsmt.CellCache
	rec   *recorder
	names map[string]string // cache key -> cell name, for span labels

	gets, puts opStats
	hits       atomic.Int64
	cells      cellTimes

	mu      sync.Mutex
	pending map[string]int64 // key -> time of its Get miss
}

func newProbeCache(inner vexsmt.CellCache, rec *recorder, names map[string]string) *probeCache {
	return &probeCache{inner: inner, rec: rec, names: names, pending: map[string]int64{}}
}

func (p *probeCache) Get(key string) ([]byte, bool) {
	start := p.rec.now()
	v, ok := p.inner.Get(key)
	end := p.rec.now()
	p.gets.note(start, end, len(v))
	p.rec.add(0, "rcache.get", p.names[key], start, end)
	if ok {
		p.hits.Add(1)
	} else {
		p.mu.Lock()
		p.pending[key] = end
		p.mu.Unlock()
	}
	return v, ok
}

func (p *probeCache) Put(key string, value []byte) {
	start := p.rec.now()
	p.inner.Put(key, value)
	end := p.rec.now()
	p.puts.note(start, end, len(value))
	p.rec.add(0, "rcache.put", p.names[key], start, end)
	p.mu.Lock()
	missed, ok := p.pending[key]
	delete(p.pending, key)
	p.mu.Unlock()
	if ok {
		p.cells.add(missed, start)
		p.rec.add(0, "cell.simulate", p.names[key], missed, start)
	}
}

func (p *probeCache) Stats() vexsmt.CacheStats { return p.inner.Stats() }

// counts returns the cumulative traffic by metric name.
func (p *probeCache) counts() map[string]float64 {
	return map[string]float64{
		"rcache.gets":  float64(p.gets.calls.Load()),
		"rcache.hits":  float64(p.hits.Load()),
		"rcache.get_s": seconds(p.gets.ns.Load()),
		"rcache.puts":  float64(p.puts.calls.Load()),
		"rcache.put_s": seconds(p.puts.ns.Load()),
		"rcache.bytes": float64(p.gets.bytes.Load() + p.puts.bytes.Load()),
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// CacheSize forwards the footprint the server's /healthz reports, so the
// decorated cache answers health probes exactly as the bare one does.
func (p *probeCache) CacheSize() vexsmt.CacheSize {
	if s, ok := p.inner.(vexsmt.CacheSizer); ok {
		return s.CacheSize()
	}
	return vexsmt.CacheSize{}
}

// discard is a CellCache that stores nothing: every Get misses. It lets
// a probeCache time cells on a workload that runs with the result cache
// off, without ever serving a result from a cache.
type discard struct{}

func (discard) Get(string) ([]byte, bool) { return nil, false }
func (discard) Put(string, []byte)        {}
func (discard) Stats() vexsmt.CacheStats  { return vexsmt.CacheStats{} }

// spanKey carries a parent span id through a request context.
type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// spanHeader carries the client's span id to the server middleware, so
// server-side spans can name their client-side parent.
const spanHeader = "X-Perfbench-Span"

// probeBackend decorates a shard.Backend: one Run is one single-cell job,
// so its duration is the cell's round trip as the coordinator sees it.
type probeBackend struct {
	shard.Backend
	rec   *recorder
	jobs  opStats
	cells cellTimes
	limit int // the most cells the coordinator may have in flight; 0 = the backend's capacity
}

// Health caps the advertised capacity at limit, which is how many cells
// the coordinator keeps in flight on this backend.
func (b *probeBackend) Health(ctx context.Context) (shard.Health, error) {
	h, err := b.Backend.Health(ctx)
	if b.limit > 0 && h.Capacity > b.limit {
		h.Capacity = b.limit
	}
	return h, err
}

func (b *probeBackend) Run(ctx context.Context, job shard.Job) (*vexsmt.ResultSet, error) {
	id := b.rec.reserve()
	start := b.rec.now()
	rs, err := b.Backend.Run(withSpan(ctx, id), job)
	end := b.rec.now()
	b.jobs.note(start, end, 0)
	b.cells.add(start, end)
	name := ""
	if len(job.Cells) == 1 {
		c := job.Cells[0]
		name = cellID(vexsmt.CellResult{Mix: c.Mix, Workload: c.Workload, Technique: c.Technique, Threads: c.Threads, Predictor: c.Predictor})
	}
	b.rec.addReserved(id, 0, "shard.job", name, start, end)
	return rs, err
}

// probeTransport decorates the HTTP backend's transport. A round trip
// lasts until the response body is closed, since the results stream
// arrives in the body; bytes_in counts the body bytes read.
type probeTransport struct {
	base http.RoundTripper
	rec  *recorder
	rt   opStats
}

func (t *probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanOf(req.Context())
	id := t.rec.reserve()
	if id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := t.rec.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end := t.rec.now()
		t.rt.note(start, end, 0)
		t.rec.addReserved(id, parent, "http.roundtrip", "", start, end)
		return nil, err
	}
	resp.Body = &probeBody{ReadCloser: resp.Body, done: func(n int) {
		end := t.rec.now()
		t.rt.note(start, end, n)
		t.rec.addReserved(id, parent, "http.roundtrip", "", start, end)
	}}
	return resp, nil
}

// probeBody counts body bytes and reports once, at Close.
type probeBody struct {
	io.ReadCloser
	n    int
	once sync.Once
	done func(n int)
}

func (b *probeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *probeBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// serverProbe is server.Handler middleware: it counts requests, times
// handlers and counts 503 admission rejections.
type serverProbe struct {
	rec      *recorder
	handlers opStats
	rejected atomic.Int64
}

func (s *serverProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := s.rec.now()
		h.ServeHTTP(sw, r)
		end := s.rec.now()
		s.handlers.note(start, end, 0)
		if sw.code == http.StatusServiceUnavailable {
			s.rejected.Add(1)
		}
		s.rec.add(parent, "server.handler "+r.URL.Path, "", start, end)
	})
}

// statusWriter records the response status and keeps streaming working:
// the NDJSON results endpoint flushes after every line.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// timedStream wraps a simulator job's instruction stream and times every
// refill. The simulator draws only through NextN, in 64-instruction
// batches, so two clock reads per batch cost far less than the batch.
type timedStream struct {
	synth.BatchStream
	ns, instrs *int64
}

func (s timedStream) NextN(out []synth.TInst) {
	start := time.Now()
	s.BatchStream.NextN(out)
	*s.ns += int64(time.Since(start))
	*s.instrs += int64(len(out))
}
