// Package obs is the telemetry substrate for the whole stack: a
// lock-free metrics registry (counters, gauges, fixed-bucket
// histograms), a ring-buffered trace-span sink, and a snapshot/export
// surface (JSON + text dashboard).
//
// The design contract, in priority order:
//
//  1. Hot-path updates are a single atomic add with zero allocations.
//     Handles are pre-registered once (at component construction) and
//     then hammered from datapaths; Observe/Inc/Add never lock, never
//     allocate, and never touch a map.
//  2. The no-op sink is the zero value. A nil *Registry hands out nil
//     *Counter / *Gauge / *Histogram handles and zero SpanHandles, and
//     every method on those is nil-safe. Components therefore
//     instrument unconditionally — "telemetry off" is exactly the nil
//     registry, which is also the ablation baseline for measuring
//     instrumentation overhead.
//  3. Registration is idempotent by name: asking for "relay.cells_fwd"
//     twice (e.g. from six relays on one simnet) returns the same
//     handle, so counters aggregate across instances by construction.
//
// Spans are reserved for control paths (circuit build, stream open,
// HS publish/fetch, bento ops, interpreter runs) where a few small
// allocations are acceptable; per-cell datapaths use only counters and
// histograms.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil Counter is a
// valid no-op. Padding keeps each counter on its own cache line:
// counters are 8-byte values allocated back to back at registration, and
// hot ones (per-cell, per-chunk) are hammered from many goroutines, so
// without it unrelated counters false-share lines and the datapath pays
// for telemetry it never touched.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be any non-negative delta; negative deltas are a
// caller bug but are not policed on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time level that can move both ways. The nil
// Gauge is a valid no-op. Padded for the same reason as Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// edges; one implicit overflow bucket catches everything beyond the
// last bound. Observe is a linear scan over a handful of bounds plus
// three atomic adds — no locks, no allocation. The nil Histogram is a
// valid no-op.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
	count  atomic.Int64
	max    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of samples (0 for the nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Canned bucket layouts. Values are inclusive upper bounds.
var (
	// LatencyBuckets covers virtual-time latencies from 10µs to ~41s,
	// in nanoseconds (use ObserveDuration).
	LatencyBuckets = ExpBuckets(int64(10*time.Microsecond), 4, 11)
	// CountBuckets covers wide-ranging counts (interpreter steps,
	// byte totals).
	CountBuckets = ExpBuckets(1, 8, 9)
	// PercentBuckets covers 0-100 ratios.
	PercentBuckets = []int64{1, 5, 10, 25, 50, 75, 90, 100}
)

// ExpBuckets builds n exponentially spaced bounds starting at start
// and multiplying by factor.
func ExpBuckets(start, factor int64, n int) []int64 {
	b := make([]int64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// entryKind tags a registry entry for the Windower's typed iteration.
type entryKind uint8

const (
	entryCounter entryKind = iota
	entryGauge
	entryHist
	entryGaugeFn
)

// entry is one registered metric in registration order. The entries
// slice is append-only: once an index exists its name/kind/handles
// never change (a GaugeFunc re-registration swaps the callback inside
// the shared fnHolder, not the entry), so samplers can remember "I
// have consumed the first n entries" and only take the registry lock
// when the atomic entry count grows.
type entry struct {
	name string
	kind entryKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   *fnHolder
}

// fnHolder indirects a GaugeFunc callback so re-registering a name
// (the documented replace semantics, exercised every time a component
// is rebuilt on a reused registry) is visible to samplers that cached
// the entry.
type fnHolder struct{ v atomic.Value } // func() int64

func (f *fnHolder) get() func() int64 { return f.v.Load().(func() int64) }

// Registry hands out named metric handles and owns the span sink.
// Handle lookup takes a mutex (registration is cold); the handles
// themselves are lock-free. The nil *Registry is the canonical no-op
// sink: every method works and does nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	gaugeFns map[string]*fnHolder
	entries  []entry
	nEntries atomic.Int64
	tracer   *Tracer
}

// NewRegistry returns a live registry with a span ring of the default
// capacity, clocked by wall time until SetClock is called.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		gaugeFns: make(map[string]*fnHolder),
		tracer:   NewTracer(DefaultSpanRing),
	}
}

// addEntry appends to the entry log; callers hold r.mu.
func (r *Registry) addEntry(e entry) {
	r.entries = append(r.entries, e)
	r.nEntries.Store(int64(len(r.entries)))
}

// numEntries is the lock-free length of the entry log.
func (r *Registry) numEntries() int { return int(r.nEntries.Load()) }

// entryAt returns entry i (< numEntries). It locks only because the
// slice header may be reallocated by a concurrent append; samplers
// call it once per newly seen entry, never on the steady-state path.
func (r *Registry) entryAt(i int) entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[i]
}

// SetClock points span timestamps (and Snapshot.TakenAt) at a
// monotonic time source — typically the simnet virtual clock's Now —
// so trace durations are in virtual, not wall, time.
func (r *Registry) SetClock(now func() time.Duration) {
	if r == nil || now == nil {
		return
	}
	r.tracer.now.Store(now)
}

// Counter returns the counter registered under name, creating it on
// first use. Nil registry → nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.addEntry(entry{name: name, kind: entryCounter, c: c})
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.addEntry(entry{name: name, kind: entryGauge, g: g})
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds on first use. Later registrations under the
// same name share the first caller's bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
		r.addEntry(entry{name: name, kind: entryHist, h: h})
	}
	return h
}

// GaugeFunc registers a callback sampled at snapshot time — for
// levels that live in someone else's data structure (open conns,
// token-bucket backlog). The callback must be safe to call from any
// goroutine. Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.gaugeFns[name]
	if h == nil {
		h = &fnHolder{}
		r.gaugeFns[name] = h
		h.v.Store(fn)
		r.addEntry(entry{name: name, kind: entryGaugeFn, fn: h})
		return
	}
	h.v.Store(fn)
}

// Tracer returns the span sink (nil for the nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// StartSpan opens a root span. The zero SpanHandle returned for a nil
// registry is a valid no-op.
func (r *Registry) StartSpan(name string) SpanHandle {
	if r == nil {
		return SpanHandle{}
	}
	return r.tracer.Start(name)
}
