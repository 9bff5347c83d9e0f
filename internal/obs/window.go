package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the time-series half of the obs package: a Windower
// samples a Registry on a fixed (virtual-clock-driven) cadence into a
// ring of cumulative snapshots and derives rates, EWMAs, and windowed
// percentiles from the deltas; Streams fan the resulting
// WindowSnapshots out to subscribers with drop-oldest backpressure.
//
// The contract mirrors the rest of the package:
//
//   - The steady-state sample path performs zero allocations. All ring
//     storage is preallocated when a series is first seen; a
//     WindowSnapshot is only materialized when a subscriber exists.
//     (GaugeFunc callbacks run on the sampler goroutine at sample time;
//     whatever they allocate is the callback's own cost.)
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
// interval, 60 slots (a one-minute window), EWMA alpha 0.3, wall
// clock.
type WindowConfig struct {
	// Interval is the sampling cadence in the clock's domain.
	Interval time.Duration
	// Slots is the ring depth; the retained window spans
	// Slots*Interval once warm.
	Slots int
	// EWMAAlpha is the smoothing factor for the per-series EWMA
	// (weight of the newest interval). 0 < alpha <= 1.
	EWMAAlpha float64
	// Clock drives the cadence and timestamps. Use the deployment's
	// *simnet.Clock so windows tick in virtual time; nil means wall.
	Clock SampleClock
}

func (c *WindowConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Slots < 2 {
		c.Slots = 60
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.3
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
// publishes derived WindowSnapshots to subscribers. Create with
// NewWindower; stop with Close.
type Windower struct {
	reg   *Registry
	cfg   WindowConfig
	clock SampleClock

	done      chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	series  []*wseries
	order   []int // series indexes sorted by name
	nSeen   int   // registry entries consumed
	times   []time.Duration
	head    int
	filled  int // global valid slots since last reset
	lastAt  time.Duration
	samples uint64
	resets  uint64
	subs    []*Stream

	tickCancel func() bool // the pending tick
}

// NewWindower starts a sampler over reg. A nil registry yields a nil
// Windower, on which every method is a safe no-op — the same ablation
// contract as the rest of the package.
func NewWindower(reg *Registry, cfg WindowConfig) *Windower {
	w := newWindower(reg, cfg)
	if w == nil {
		return nil
	}
	w.arm()
	return w
}

// newWindower builds the sampler without arming its first tick; tests
// drive ticks by hand.
func newWindower(reg *Registry, cfg WindowConfig) *Windower {
	if reg == nil {
		return nil
	}
	cfg.fill()
	return &Windower{
		reg:    reg,
		cfg:    cfg,
		clock:  cfg.Clock,
		done:   make(chan struct{}),
		times:  make([]time.Duration, cfg.Slots),
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

// Close stops the sampler and closes all subscriber channels.
func (w *Windower) Close() {
	if w == nil {
		return
	}
	w.closeOnce.Do(func() {
		close(w.done)
		w.mu.Lock()
		if w.tickCancel != nil {
			w.tickCancel()
			w.tickCancel = nil
		}
		for _, s := range w.subs {
			s.closed = true
			close(s.ch)
		}
		w.subs = nil
		w.mu.Unlock()
	})
}

// arm schedules the next tick. Each tick samples and then arms the one
// after it, so the pending tick is in the clock's wheel before virtual time
// can move past it. A tick that loses the race with Close sees done closed
// and ends the chain (Close also cancels the stored pending tick, so at
// most one no-op fire escapes).
func (w *Windower) arm() {
	cancel := w.clock.Schedule(w.cfg.Interval, func() {
		select {
		case <-w.done:
			return
		default:
		}
		w.tick()
		w.arm()
	})
	w.mu.Lock()
	w.tickCancel = cancel
	w.mu.Unlock()
}

// tick runs one sample and publishes to subscribers if warranted.
func (w *Windower) tick() {
	if w == nil {
		return
	}
	now := w.clock.Now()
	w.mu.Lock()
	publish := w.sampleLocked(now)
	if publish && len(w.subs) > 0 {
		snap := w.buildSnapshotLocked()
		for _, s := range w.subs {
			s.push(snap)
		}
	}
	w.mu.Unlock()
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

	w.head = (w.head + 1) % w.cfg.Slots
	w.times[w.head] = now
	if w.filled < w.cfg.Slots {
		w.filled++
	}
	w.lastAt = now
	w.samples++

	alpha := w.cfg.EWMAAlpha
	for _, s := range w.series {
		if s.filled < w.cfg.Slots {
			s.filled++
		}
		switch s.kind {
		case entryCounter:
			v := s.c.Value()
			w.sampleCumulative(s, v, dt, alpha, true)
		case entryGauge:
			w.sampleLevel(s, s.g.Value(), dt, alpha)
		case entryGaugeFn:
			w.sampleLevel(s, s.fn.get()(), dt, alpha)
		case entryHist:
			w.sampleHist(s, dt, alpha)
		}
	}
	return !primer
}

// oldestSlot returns the ring index of the oldest valid slot for a
// series with the given fill.
func (w *Windower) oldestSlot(filled int) int {
	return (w.head - (filled - 1) + w.cfg.Slots) % w.cfg.Slots
}

// sampleCumulative updates a monotonic series (counters). Negative
// deltas clamp to zero so a rebuilt component never yields a bogus
// rate.
func (w *Windower) sampleCumulative(s *wseries, v int64, dt time.Duration, alpha float64, clamp bool) {
	prev := s.last
	s.vals[w.head] = v
	s.last = v
	if s.filled < 2 || dt <= 0 {
		return
	}
	d := v - prev
	if clamp && d < 0 {
		d = 0
	}
	s.rate = float64(d) / dt.Seconds()
	old := w.oldestSlot(s.filled)
	span := w.times[w.head] - w.times[old]
	if span > 0 {
		wd := v - s.vals[old]
		if clamp && wd < 0 {
			wd = 0
		}
		s.wrate = float64(wd) / span.Seconds()
	}
	if !s.primed {
		s.ewma = s.rate
		s.primed = true
	} else {
		s.ewma = alpha*s.rate + (1-alpha)*s.ewma
	}
}

// sampleLevel updates a level series (gauges, gauge funcs): rate is
// the signed level trend, EWMA smooths the level itself.
func (w *Windower) sampleLevel(s *wseries, v int64, dt time.Duration, alpha float64) {
	prev := s.last
	s.vals[w.head] = v
	s.last = v
	if !s.primed {
		s.ewma = float64(v)
		s.primed = true
	} else {
		s.ewma = alpha*float64(v) + (1-alpha)*s.ewma
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
func (w *Windower) sampleHist(s *wseries, dt time.Duration, alpha float64) {
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
		s.ewma = alpha*s.rate + (1-alpha)*s.ewma
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
			vals: make([]int64, w.cfg.Slots),
		}
		if e.kind == entryHist {
			s.nb = len(e.h.counts)
			s.hcum = make([]int64, w.cfg.Slots*s.nb)
			s.hcount = make([]int64, w.cfg.Slots)
			s.hsum = make([]int64, w.cfg.Slots)
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
// with w.mu held, only when subscribers exist (it allocates).
func (w *Windower) buildSnapshotLocked() *WindowSnapshot {
	dt := time.Duration(0)
	if w.filled >= 2 {
		prev := (w.head - 1 + w.cfg.Slots) % w.cfg.Slots
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
// dashboards that poll rather than subscribe). Nil Windower → nil.
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

// LineProtocol renders the snapshot in an influx-style line protocol:
//
//	<name>,kind=<kind> <field>=<value>,... <timestamp_ns>
//
// Counters and gauges carry last/rate/ewma; histograms add
// count/sum/mean and p50/p95/p99. Integer fields use the trailing-i
// convention.
func (ws *WindowSnapshot) LineProtocol() []byte {
	return ws.AppendLineProtocol(nil)
}

// AppendLineProtocol appends the line-protocol rendering to b.
func (ws *WindowSnapshot) AppendLineProtocol(b []byte) []byte {
	if ws == nil {
		return b
	}
	ts := int64(ws.At)
	for i := range ws.Series {
		s := &ws.Series[i]
		b = append(b, s.Name...)
		b = append(b, ",kind="...)
		b = append(b, s.Kind...)
		b = append(b, ' ')
		b = appendIntField(b, "last", s.Last, false)
		b = appendFloatField(b, "rate", s.Rate)
		b = appendFloatField(b, "ewma", s.EWMA)
		if s.Kind == "hist" {
			b = appendIntField(b, "count", s.Count, true)
			b = appendIntField(b, "sum", s.Sum, true)
			b = appendFloatField(b, "mean", s.Mean)
			b = appendIntField(b, "p50", s.P50, true)
			b = appendIntField(b, "p95", s.P95, true)
			b = appendIntField(b, "p99", s.P99, true)
		}
		b = append(b, ' ')
		b = strconv.AppendInt(b, ts, 10)
		b = append(b, '\n')
	}
	return b
}

func appendIntField(b []byte, name string, v int64, comma bool) []byte {
	if comma {
		b = append(b, ',')
	}
	b = append(b, name...)
	b = append(b, '=')
	b = strconv.AppendInt(b, v, 10)
	b = append(b, 'i')
	return b
}

func appendFloatField(b []byte, name string, v float64) []byte {
	b = append(b, ',')
	b = append(b, name...)
	b = append(b, '=')
	b = strconv.AppendFloat(b, v, 'f', 3, 64)
	return b
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

// Stream is one subscriber's view of a Windower: a buffered channel
// of WindowSnapshots with drop-oldest backpressure. A slow consumer
// loses the oldest pending windows (counted in Dropped), never blocks
// the sampler, and always sees the newest window on its next receive.
type Stream struct {
	w       *Windower
	ch      chan *WindowSnapshot
	dropped atomic.Uint64
	closed  bool
}

// Subscribe registers a new stream with the given channel depth
// (minimum 1). Nil Windower → nil Stream (whose methods no-op).
func (w *Windower) Subscribe(buf int) *Stream {
	if w == nil {
		return nil
	}
	if buf < 1 {
		buf = 1
	}
	s := &Stream{w: w, ch: make(chan *WindowSnapshot, buf)}
	w.mu.Lock()
	select {
	case <-w.done:
		// Windower already closed: hand back a closed stream.
		s.closed = true
		close(s.ch)
	default:
		w.subs = append(w.subs, s)
	}
	w.mu.Unlock()
	return s
}

// push delivers snap with drop-oldest semantics; called with w.mu
// held (single producer).
func (s *Stream) push(snap *WindowSnapshot) {
	select {
	case s.ch <- snap:
		return
	default:
	}
	select {
	case <-s.ch:
		s.dropped.Add(1)
	default:
	}
	select {
	case s.ch <- snap:
	default:
		s.dropped.Add(1)
	}
}

// C is the receive side; it is closed when the Stream or its Windower
// closes. Nil Stream → nil channel (blocks forever in a select, the
// conventional no-op).
func (s *Stream) C() <-chan *WindowSnapshot {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped reports how many windows were discarded because the
// consumer lagged.
func (s *Stream) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close unsubscribes the stream and closes its channel.
func (s *Stream) Close() {
	if s == nil {
		return
	}
	w := s.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for i, sub := range w.subs {
		if sub == s {
			w.subs = append(w.subs[:i], w.subs[i+1:]...)
			break
		}
	}
	close(s.ch)
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
