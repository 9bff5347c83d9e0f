package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the time-series half of the obs package: a Windower
// samples a Registry on a fixed (virtual-clock-driven) cadence into a
// ring of cumulative snapshots and derives rates, EWMAs, and windowed
// percentiles from the deltas, and hands each resulting WindowSnapshot
// to its registered callbacks on the tick that produced it.
//
// The contract mirrors the rest of the package:
//
//   - The steady-state sample path performs zero allocations. All ring
//     storage is preallocated when a series is first seen; a
//     WindowSnapshot is only materialized when a callback is registered.
//     (GaugeFunc callbacks run in the tick at sample time; whatever they
//     allocate is the callback's own cost.)
//   - The nil *Windower — what NewWindower returns for a nil registry —
//     is a valid no-op: every method works and does nothing.
//   - Deltas are monotonic-safe: a counter that appears to move
//     backwards (component rebuilt on a reused registry, caller bug)
//     clamps to zero rather than producing a huge negative or
//     wrapped-positive rate, and a sampler clock that jumps backwards
//     (registry rebound to a fresh virtual clock across a testbed
//     restart) resets the ring and re-primes instead of emitting
//     garbage windows.

// SampleClock is the Windower's time source: Now stamps samples, and
// Schedule runs f once after d and returns a cancel. *simnet.Clock
// satisfies it directly; the zero-config default is wall time on
// time.AfterFunc. The Windower re-arms each tick from inside the previous
// tick's callback rather than running a cadence goroutine: on a
// discrete-event core a goroutine waiting on a timer can lose the re-arm
// race against the dispatcher's quiescence detector and miss ticks
// forever, while a scheduled event is in the wheel before time advances.
type SampleClock interface {
	Now() time.Duration
	Schedule(d time.Duration, f func()) func() bool
}

// wallSampleClock adapts the wall clock to SampleClock.
type wallSampleClock struct{ epoch time.Time }

func (w wallSampleClock) Now() time.Duration { return time.Since(w.epoch) }
func (w wallSampleClock) Schedule(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// WindowConfig tunes a Windower. The zero value is usable: 1s
// interval, wall clock.
type WindowConfig struct {
	// Interval is the sampling cadence in the clock's domain.
	Interval time.Duration
	// Clock drives the cadence and timestamps. Use the deployment's
	// *simnet.Clock so windows tick in virtual time; nil means wall.
	Clock SampleClock
}

const (
	// windowSlots is the ring depth: the retained window spans
	// windowSlots*Interval once warm (a minute at the default interval).
	windowSlots = 60
	// ewmaAlpha is the weight of the newest interval in each series'
	// EWMA.
	ewmaAlpha = 0.3
)

func (c *WindowConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Clock == nil {
		c.Clock = wallSampleClock{epoch: time.Now()}
	}
}

// wseries is the Windower's per-metric ring state. vals holds the
// cumulative observation per slot (counter total, gauge level,
// gauge-func level, histogram count is tracked in hcount); histograms
// additionally ring their cumulative per-bucket counts and sum so
// windowed percentiles and means come from newest-minus-oldest bucket
// deltas.
type wseries struct {
	name string
	kind entryKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   *fnHolder

	vals   []int64 // len Slots
	hcum   []int64 // len Slots*nb, row-major by slot
	hcount []int64 // len Slots
	hsum   []int64 // len Slots
	nb     int
	hdelta []int64 // scratch, len nb

	filled int // valid slots, <= Slots

	// Derived stats, refreshed each sample.
	last          int64
	rate          float64 // per-second over the newest interval
	wrate         float64 // per-second over the retained window
	ewma          float64
	primed        bool
	wcount, wsum  int64
	mean          float64
	p50, p95, p99 int64
}

func (s *wseries) kindStr() string {
	switch s.kind {
	case entryCounter:
		return "counter"
	case entryGauge:
		return "gauge"
	case entryGaugeFn:
		return "gaugefn"
	default:
		return "hist"
	}
}

// Windower samples a Registry every Interval into a fixed ring and
// hands derived WindowSnapshots to the callbacks registered with
// OnWindow. Create with NewWindower; stop with Close.
type Windower struct {
	reg   *Registry
	cfg   WindowConfig
	slots int // ring depth

	// tickMu spans a whole tick (sample, callbacks, re-arm), so ticks
	// never overlap and Close and cancel never return mid-delivery. It
	// guards the fields up to mu.
	tickMu     sync.Mutex
	closed     bool
	subs       []*windowSub
	tickCancel func() bool // the pending tick

	mu      sync.Mutex // guards the ring and the derived stats
	series  []*wseries
	order   []int // series indexes sorted by name
	nSeen   int   // registry entries consumed
	times   []time.Duration
	head    int
	filled  int // global valid slots since last reset
	lastAt  time.Duration
	samples uint64
	resets  uint64
}

// windowSub is one OnWindow registration; its address is its identity.
type windowSub struct{ fn func(*WindowSnapshot) }

// NewWindower starts a sampler over reg. A nil registry yields a nil
// Windower, on which every method is a safe no-op — the same ablation
// contract as the rest of the package.
func NewWindower(reg *Registry, cfg WindowConfig) *Windower {
	w := newWindower(reg, cfg, windowSlots)
	if w != nil {
		w.tickMu.Lock()
		w.arm()
		w.tickMu.Unlock()
	}
	return w
}

// newWindower builds a sampler with the given ring depth without arming
// its first tick; tests drive ticks by hand.
func newWindower(reg *Registry, cfg WindowConfig, slots int) *Windower {
	if reg == nil {
		return nil
	}
	cfg.fill()
	return &Windower{
		reg:    reg,
		cfg:    cfg,
		slots:  slots,
		times:  make([]time.Duration, slots),
		head:   -1,
		lastAt: -1,
	}
}

// Interval reports the configured cadence (0 for the nil Windower).
func (w *Windower) Interval() time.Duration {
	if w == nil {
		return 0
	}
	return w.cfg.Interval
}

// Samples reports how many sample ticks have run.
func (w *Windower) Samples() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.samples
}

// Resets reports how many times a clock regression forced the ring to
// re-prime.
func (w *Windower) Resets() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.resets
}

// OnWindow registers fn to receive every published window: once per
// sample that has deltas (never the priming or a reset tick), at that
// sample's instant, after the callbacks registered before it. fn runs in
// the tick's own context (the dispatcher on a simnet event clock, a
// timer goroutine otherwise) with no Windower lock held, so it may call
// Window. It must not block, and it must not call OnWindow, a cancel, or
// Close: those wait for the tick in progress. All callbacks of a tick
// share one snapshot; treat it as read-only.
//
// After the returned cancel returns, fn never runs again. On a nil or
// closed Windower fn is never called and cancel does nothing.
func (w *Windower) OnWindow(fn func(*WindowSnapshot)) (cancel func()) {
	if w == nil {
		return func() {}
	}
	sub := &windowSub{fn: fn}
	w.tickMu.Lock()
	if !w.closed {
		w.subs = append(w.subs, sub)
	}
	w.tickMu.Unlock()
	return func() {
		w.tickMu.Lock()
		defer w.tickMu.Unlock()
		w.subs = slices.DeleteFunc(w.subs, func(s *windowSub) bool { return s == sub })
	}
}

// Close stops the sampler: it cancels the pending tick, waits out one in
// progress, and drops every callback.
func (w *Windower) Close() {
	if w == nil {
		return
	}
	w.tickMu.Lock()
	defer w.tickMu.Unlock()
	w.closed = true
	if w.tickCancel != nil {
		w.tickCancel()
		w.tickCancel = nil
	}
	w.subs = nil
}

// arm schedules the next tick; tickMu is held. Each tick samples,
// delivers, and only then arms the one after it, so the pending tick is
// in the clock's wheel before virtual time can move past it.
func (w *Windower) arm() {
	w.tickCancel = w.cfg.Clock.Schedule(w.cfg.Interval, func() {
		w.tickMu.Lock()
		defer w.tickMu.Unlock()
		if w.tickLocked() {
			w.arm()
		}
	})
}

// tickLocked takes one sample and hands a published window to every
// callback in registration order; tickMu is held, w.mu only while
// sampling. It does nothing and reports false once the Windower is
// closed.
func (w *Windower) tickLocked() bool {
	if w.closed {
		return false
	}
	now := w.cfg.Clock.Now()
	w.mu.Lock()
	var snap *WindowSnapshot
	if w.sampleLocked(now) && len(w.subs) > 0 {
		snap = w.buildSnapshotLocked()
	}
	w.mu.Unlock()
	if snap != nil {
		for _, s := range w.subs {
			s.fn(snap)
		}
	}
	return true
}

// sampleLocked takes one sample at time now. Returns false on priming
// and reset ticks (no deltas to publish). Zero allocations except
// when new registry entries appeared since the last tick.
func (w *Windower) sampleLocked(now time.Duration) bool {
	w.syncSeriesLocked()

	dt := now - w.lastAt
	primer := w.samples == 0
	if !primer && dt <= 0 {
		// Clock regression: the registry's world was rebuilt on a
		// fresh virtual clock. Drop the ring and re-prime.
		w.resets++
		w.filled = 0
		for _, s := range w.series {
			s.filled = 0
			s.rate, s.wrate, s.ewma = 0, 0, 0
			s.primed = false
			s.wcount, s.wsum, s.mean = 0, 0, 0
			s.p50, s.p95, s.p99 = 0, 0, 0
		}
		primer = true
	}

	w.head = (w.head + 1) % w.slots
	w.times[w.head] = now
	if w.filled < w.slots {
		w.filled++
	}
	w.lastAt = now
	w.samples++

	for _, s := range w.series {
		if s.filled < w.slots {
			s.filled++
		}
		switch s.kind {
		case entryCounter:
			w.sampleCounter(s, s.c.Value(), dt)
		case entryGauge:
			w.sampleLevel(s, s.g.Value(), dt)
		case entryGaugeFn:
			w.sampleLevel(s, s.fn.get()(), dt)
		case entryHist:
			w.sampleHist(s, dt)
		}
	}
	return !primer
}

// oldestSlot returns the ring index of the oldest valid slot for a
// series with the given fill.
func (w *Windower) oldestSlot(filled int) int {
	return (w.head - (filled - 1) + w.slots) % w.slots
}

// sampleCounter updates a monotonic series. Negative deltas clamp to
// zero so a rebuilt component never yields a bogus rate.
func (w *Windower) sampleCounter(s *wseries, v int64, dt time.Duration) {
	prev := s.last
	s.vals[w.head] = v
	s.last = v
	if s.filled < 2 || dt <= 0 {
		return
	}
	s.rate = float64(max(v-prev, 0)) / dt.Seconds()
	old := w.oldestSlot(s.filled)
	if span := w.times[w.head] - w.times[old]; span > 0 {
		s.wrate = float64(max(v-s.vals[old], 0)) / span.Seconds()
	}
	if !s.primed {
		s.ewma = s.rate
		s.primed = true
	} else {
		s.ewma = ewmaAlpha*s.rate + (1-ewmaAlpha)*s.ewma
	}
}

// sampleLevel updates a level series (gauges, gauge funcs): rate is
// the signed level trend, EWMA smooths the level itself.
func (w *Windower) sampleLevel(s *wseries, v int64, dt time.Duration) {
	prev := s.last
	s.vals[w.head] = v
	s.last = v
	if !s.primed {
		s.ewma = float64(v)
		s.primed = true
	} else {
		s.ewma = ewmaAlpha*float64(v) + (1-ewmaAlpha)*s.ewma
	}
	if s.filled < 2 || dt <= 0 {
		return
	}
	s.rate = float64(v-prev) / dt.Seconds()
	old := w.oldestSlot(s.filled)
	span := w.times[w.head] - w.times[old]
	if span > 0 {
		s.wrate = float64(v-s.vals[old]) / span.Seconds()
	}
}

// sampleHist rings the histogram's cumulative bucket counts and
// derives windowed count/sum/mean and p50/p95/p99 from
// newest-minus-oldest deltas (clamped to zero per bucket).
func (w *Windower) sampleHist(s *wseries, dt time.Duration) {
	h := s.h
	row := s.hcum[w.head*s.nb : (w.head+1)*s.nb]
	for i := range row {
		row[i] = h.counts[i].Load()
	}
	count := h.count.Load()
	prev := s.last
	s.hcount[w.head] = count
	s.hsum[w.head] = h.sum.Load()
	s.last = count
	if s.filled < 2 || dt <= 0 {
		return
	}
	d := count - prev
	if d < 0 {
		d = 0
	}
	s.rate = float64(d) / dt.Seconds()
	if !s.primed {
		s.ewma = s.rate
		s.primed = true
	} else {
		s.ewma = ewmaAlpha*s.rate + (1-ewmaAlpha)*s.ewma
	}

	old := w.oldestSlot(s.filled)
	span := w.times[w.head] - w.times[old]
	if span > 0 {
		wd := count - s.hcount[old]
		if wd < 0 {
			wd = 0
		}
		s.wrate = float64(wd) / span.Seconds()
	}
	oldRow := s.hcum[old*s.nb : (old+1)*s.nb]
	var wcount int64
	for i := range row {
		dd := row[i] - oldRow[i]
		if dd < 0 {
			dd = 0
		}
		s.hdelta[i] = dd
		wcount += dd
	}
	s.wcount = wcount
	s.wsum = s.hsum[w.head] - s.hsum[old]
	if s.wsum < 0 {
		s.wsum = 0
	}
	if wcount > 0 {
		s.mean = float64(s.wsum) / float64(wcount)
	} else {
		s.mean = 0
	}
	s.p50 = bucketQuantile(h.bounds, s.hdelta, wcount, 0.50)
	s.p95 = bucketQuantile(h.bounds, s.hdelta, wcount, 0.95)
	s.p99 = bucketQuantile(h.bounds, s.hdelta, wcount, 0.99)
}

// syncSeriesLocked absorbs registry entries added since the last
// tick. This is the only sampling-path code that allocates, and it
// runs once per newly registered metric, not per tick.
func (w *Windower) syncSeriesLocked() {
	n := w.reg.numEntries()
	if n == w.nSeen {
		return
	}
	for i := w.nSeen; i < n; i++ {
		e := w.reg.entryAt(i)
		s := &wseries{
			name: e.name, kind: e.kind,
			c: e.c, g: e.g, h: e.h, fn: e.fn,
			vals: make([]int64, w.slots),
		}
		if e.kind == entryHist {
			s.nb = len(e.h.counts)
			s.hcum = make([]int64, w.slots*s.nb)
			s.hcount = make([]int64, w.slots)
			s.hsum = make([]int64, w.slots)
			s.hdelta = make([]int64, s.nb)
		}
		w.series = append(w.series, s)
		w.order = append(w.order, len(w.series)-1)
	}
	w.nSeen = n
	sort.Slice(w.order, func(a, b int) bool {
		return w.series[w.order[a]].name < w.series[w.order[b]].name
	})
}

// bucketQuantile estimates the q-quantile of a fixed-bucket
// distribution by linear interpolation inside the owning bucket
// (lower edge 0 for the first bucket). Samples that landed in the
// overflow bucket report the last bound — the ring has no upper edge
// for them. Returns 0 when total is 0.
func bucketQuantile(bounds []int64, counts []int64, total int64, q float64) int64 {
	if total <= 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := int64(0)
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + int64(frac*float64(hi-lo))
		}
		cum = next
	}
	return bounds[len(bounds)-1]
}

// SeriesStat is one metric's derived window statistics.
type SeriesStat struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Last is the newest raw observation: counter total, gauge level,
	// histogram lifetime count.
	Last int64 `json:"last"`
	// Rate is per-second over the newest interval (counters and
	// histogram counts clamp negative deltas to 0; gauge rates are
	// signed trends).
	Rate float64 `json:"rate"`
	// WindowRate is per-second over the whole retained ring.
	WindowRate float64 `json:"window_rate"`
	// EWMA smooths Rate for counters/histograms and the level for
	// gauges.
	EWMA float64 `json:"ewma"`
	// Histogram-only: samples, sum, mean, and percentiles within the
	// retained window.
	Count int64   `json:"count,omitempty"`
	Sum   int64   `json:"sum,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   int64   `json:"p50,omitempty"`
	P95   int64   `json:"p95,omitempty"`
	P99   int64   `json:"p99,omitempty"`
}

// WindowSnapshot is one published sample: every series' derived stats
// at a common timestamp, sorted by name.
type WindowSnapshot struct {
	At       time.Duration `json:"at_ns"`
	Interval time.Duration `json:"interval_ns"` // actual newest gap
	Window   time.Duration `json:"window_ns"`   // span of the retained ring
	Seq      uint64        `json:"seq"`
	Series   []SeriesStat  `json:"series"`
}

// buildSnapshotLocked materializes the current derived state; called
// with w.mu held, only when a callback is registered (it allocates).
func (w *Windower) buildSnapshotLocked() *WindowSnapshot {
	dt := time.Duration(0)
	if w.filled >= 2 {
		prev := (w.head - 1 + w.slots) % w.slots
		dt = w.times[w.head] - w.times[prev]
	}
	span := time.Duration(0)
	if w.filled >= 2 {
		span = w.times[w.head] - w.times[w.oldestSlot(w.filled)]
	}
	ws := &WindowSnapshot{
		At:       w.times[w.head],
		Interval: dt,
		Window:   span,
		Seq:      w.samples,
		Series:   make([]SeriesStat, 0, len(w.series)),
	}
	for _, i := range w.order {
		s := w.series[i]
		st := SeriesStat{
			Name: s.name, Kind: s.kindStr(),
			Last: s.last, Rate: s.rate, WindowRate: s.wrate, EWMA: s.ewma,
		}
		if s.kind == entryHist {
			st.Count, st.Sum, st.Mean = s.wcount, s.wsum, s.mean
			st.P50, st.P95, st.P99 = s.p50, s.p95, s.p99
		}
		ws.Series = append(ws.Series, st)
	}
	return ws
}

// Window materializes the current window state on demand (for
// dashboards that poll rather than register a callback). Nil Windower
// → nil.
func (w *Windower) Window() *WindowSnapshot {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.samples == 0 {
		return &WindowSnapshot{}
	}
	return w.buildSnapshotLocked()
}

// Find returns the series named name, or nil. Series are sorted by
// name, so this is a binary search.
func (ws *WindowSnapshot) Find(name string) *SeriesStat {
	if ws == nil {
		return nil
	}
	i := sort.Search(len(ws.Series), func(i int) bool { return ws.Series[i].Name >= name })
	if i < len(ws.Series) && ws.Series[i].Name == name {
		return &ws.Series[i]
	}
	return nil
}

// Dashboard renders the window as an aligned text table, with
// duration formatting for *_ns series.
func (ws *WindowSnapshot) Dashboard() string {
	if ws == nil {
		return "windows: disabled (nil windower)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== windows @ %v (interval %v, span %v) ==\n",
		ws.At.Round(time.Microsecond), ws.Interval.Round(time.Millisecond),
		ws.Window.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-40s %-7s %12s %10s %10s %10s %10s %10s\n",
		"series", "kind", "last", "rate/s", "ewma", "p50", "p95", "p99")
	for i := range ws.Series {
		s := &ws.Series[i]
		p50, p95, p99 := "-", "-", "-"
		if s.Kind == "hist" {
			if strings.HasSuffix(s.Name, "_ns") {
				p50 = time.Duration(s.P50).Round(time.Microsecond).String()
				p95 = time.Duration(s.P95).Round(time.Microsecond).String()
				p99 = time.Duration(s.P99).Round(time.Microsecond).String()
			} else {
				p50 = strconv.FormatInt(s.P50, 10)
				p95 = strconv.FormatInt(s.P95, 10)
				p99 = strconv.FormatInt(s.P99, 10)
			}
		}
		fmt.Fprintf(&b, "  %-40s %-7s %12d %10.2f %10.2f %10s %10s %10s\n",
			s.Name, s.Kind, s.Last, s.Rate, s.EWMA, p50, p95, p99)
	}
	return b.String()
}

// ExportSpansAsSeries installs a span export hook that mirrors every
// completed span into a duration histogram named "span.<name>_ns",
// turning control-path trace timings (circuit builds, bento ops,
// event-core settle spans) into series a Windower can rate and
// percentile. It replaces any previously installed export hook.
func (r *Registry) ExportSpansAsSeries() {
	if r == nil {
		return
	}
	var mu sync.Mutex
	hists := make(map[string]*Histogram)
	r.tracer.SetExportHook(func(s Span) {
		mu.Lock()
		h := hists[s.Name]
		if h == nil {
			h = r.Histogram("span."+s.Name+"_ns", LatencyBuckets)
			hists[s.Name] = h
		}
		mu.Unlock()
		h.ObserveDuration(s.Dur)
	})
}
