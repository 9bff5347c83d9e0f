package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// stepClock is a hand-cranked SampleClock: tests advance it and call
// Windower.tick directly, so window math is exact and deterministic.
type stepClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *stepClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Schedule never fires; tests using stepClock drive ticks by hand.
func (c *stepClock) Schedule(time.Duration, func()) func() bool { return func() bool { return false } }

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func (c *stepClock) set(d time.Duration) {
	c.mu.Lock()
	c.now = d
	c.mu.Unlock()
}

func newTestWindower(reg *Registry, slots int) (*Windower, *stepClock) {
	clk := &stepClock{now: time.Second}
	w := newWindower(reg, WindowConfig{Interval: time.Second, Clock: clk}, slots)
	return w, clk
}

// tick runs one tick by hand, as the scheduled callback would.
func (w *Windower) tick() {
	if w == nil {
		return
	}
	w.tickMu.Lock()
	defer w.tickMu.Unlock()
	w.tickLocked()
}

func (w *Windower) step(clk *stepClock, d time.Duration) {
	clk.advance(d)
	w.tick()
}

func TestWindowerNilNoOp(t *testing.T) {
	w := NewWindower(nil, WindowConfig{})
	if w != nil {
		t.Fatalf("NewWindower(nil) = %v, want nil", w)
	}
	w.Close()
	w.tick()
	if w.Window() != nil {
		t.Fatal("nil Windower.Window() should be nil")
	}
	if got := w.Interval(); got != 0 {
		t.Fatalf("nil Interval = %v", got)
	}
	if w.Samples() != 0 || w.Resets() != 0 {
		t.Fatal("nil Windower counters should be 0")
	}
	cancel := w.OnWindow(func(*WindowSnapshot) { t.Fatal("nil Windower delivered a window") })
	cancel()
	var ws *WindowSnapshot
	if ws.Find("x") != nil {
		t.Fatal("nil snapshot Find should be nil")
	}
}

func TestWindowerRatesAndPercentiles(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app.requests")
	g := reg.Gauge("app.queue")
	h := reg.Histogram("app.latency_ns", []int64{100, 200, 400, 800})
	reg.GaugeFunc("app.level", func() int64 { return 42 })

	w, clk := newTestWindower(reg, 8)
	w.tick() // priming sample

	c.Add(10)
	g.Set(5)
	for i := 0; i < 90; i++ {
		h.Observe(150) // bucket (100,200]
	}
	for i := 0; i < 10; i++ {
		h.Observe(700) // bucket (400,800]
	}
	w.step(clk, time.Second)

	ws := w.Window()
	cs := ws.Find("app.requests")
	if cs == nil || cs.Last != 10 {
		t.Fatalf("counter stat = %+v", cs)
	}
	if cs.Rate < 9.9 || cs.Rate > 10.1 {
		t.Fatalf("counter rate = %v, want ~10/s", cs.Rate)
	}
	if cs.EWMA < 9.9 || cs.EWMA > 10.1 {
		t.Fatalf("first ewma should prime to rate, got %v", cs.EWMA)
	}
	gs := ws.Find("app.queue")
	if gs == nil || gs.Last != 5 || gs.Kind != "gauge" {
		t.Fatalf("gauge stat = %+v", gs)
	}
	fs := ws.Find("app.level")
	if fs == nil || fs.Last != 42 || fs.Kind != "gaugefn" {
		t.Fatalf("gaugefn stat = %+v", fs)
	}
	hs := ws.Find("app.latency_ns")
	if hs == nil || hs.Count != 100 || hs.Sum != 90*150+10*700 {
		t.Fatalf("hist stat = %+v", hs)
	}
	// p50 of 90x150 + 10x700: rank 50 lands mid bucket (100,200].
	if hs.P50 < 100 || hs.P50 > 200 {
		t.Fatalf("p50 = %d, want in (100,200]", hs.P50)
	}
	// p95 rank 95 lands in (400,800].
	if hs.P95 <= 400 || hs.P95 > 800 {
		t.Fatalf("p95 = %d, want in (400,800]", hs.P95)
	}
	if hs.P99 <= 400 || hs.P99 > 800 {
		t.Fatalf("p99 = %d, want in (400,800]", hs.P99)
	}
	wantMean := float64(90*150+10*700) / 100
	if hs.Mean != wantMean {
		t.Fatalf("mean = %v, want %v", hs.Mean, wantMean)
	}

	// EWMA converges toward a sustained rate.
	for i := 0; i < 20; i++ {
		c.Add(30)
		w.step(clk, time.Second)
	}
	cs = w.Window().Find("app.requests")
	if cs.EWMA < 28 || cs.EWMA > 31 {
		t.Fatalf("ewma after sustained 30/s = %v", cs.EWMA)
	}
}

func TestWindowerEvictsOldObservations(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("app.lat", []int64{10, 100, 1000})
	w, clk := newTestWindower(reg, 4)
	w.tick()

	for i := 0; i < 50; i++ {
		h.Observe(5)
	}
	w.step(clk, time.Second)
	if got := w.Window().Find("app.lat"); got.Count != 50 || got.P95 > 10 {
		t.Fatalf("initial window = %+v", got)
	}
	// Let the burst of small samples age out of the 4-slot ring while
	// large samples arrive.
	for i := 0; i < 6; i++ {
		h.Observe(500)
		w.step(clk, time.Second)
	}
	got := w.Window().Find("app.lat")
	if got.Count >= 50 {
		t.Fatalf("old samples should have aged out; window count = %d", got.Count)
	}
	if got.P50 <= 100 {
		t.Fatalf("windowed p50 should reflect only recent large samples, got %d", got.P50)
	}
}

func TestWindowerMonotonicSafeDeltas(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app.ops")
	w, clk := newTestWindower(reg, 8)
	w.tick()

	c.Add(100)
	w.step(clk, time.Second)
	if r := w.Window().Find("app.ops").Rate; r < 99 || r > 101 {
		t.Fatalf("rate = %v", r)
	}

	// A counter moving backwards (registry reused across a component
	// rebuild, or caller bug) must clamp to zero, not go negative or
	// wrap.
	c.Add(-80)
	w.step(clk, time.Second)
	st := w.Window().Find("app.ops")
	if st.Rate != 0 {
		t.Fatalf("negative delta should clamp: rate = %v", st.Rate)
	}
	if st.WindowRate < 0 {
		t.Fatalf("window rate went negative: %v", st.WindowRate)
	}
}

func TestWindowerClockRegressionResets(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app.ops")
	w, clk := newTestWindower(reg, 8)
	w.tick()
	c.Add(50)
	w.step(clk, time.Second)
	if w.Resets() != 0 {
		t.Fatalf("unexpected reset")
	}

	// Simulate a testbed restart rebinding the world to a fresh
	// virtual clock: time jumps backwards.
	clk.set(10 * time.Millisecond)
	w.tick()
	if w.Resets() != 1 {
		t.Fatalf("resets = %d, want 1", w.Resets())
	}
	st := w.Window().Find("app.ops")
	if st.Rate != 0 || st.EWMA != 0 {
		t.Fatalf("post-reset stats should be re-primed: %+v", st)
	}
	// And the ring recovers on the new timeline.
	c.Add(20)
	w.step(clk, time.Second)
	st = w.Window().Find("app.ops")
	if st.Rate < 19 || st.Rate > 21 {
		t.Fatalf("post-reset rate = %v, want ~20/s", st.Rate)
	}
}

func TestWindowerLateRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.first")
	w, clk := newTestWindower(reg, 8)
	w.tick()
	w.step(clk, time.Second)

	// Metrics registered after the sampler started are picked up on
	// the next tick.
	late := reg.Counter("z.late")
	late.Add(7)
	w.step(clk, time.Second)
	if st := w.Window().Find("z.late"); st == nil || st.Last != 7 {
		t.Fatalf("late-registered series missing: %+v", st)
	}
	// Its rate needs a second post-registration sample (first is its
	// own baseline).
	late.Add(7)
	w.step(clk, time.Second)
	if st := w.Window().Find("z.late"); st.Rate < 6.9 || st.Rate > 7.1 {
		t.Fatalf("late series rate = %+v", st)
	}
}

func TestWindowerGaugeFuncReplacementVisible(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("sim.level", func() int64 { return 1 })
	w, clk := newTestWindower(reg, 8)
	w.tick()
	w.step(clk, time.Second)
	if st := w.Window().Find("sim.level"); st.Last != 1 {
		t.Fatalf("gaugefn = %+v", st)
	}
	// Re-registering the name (component rebuilt on a reused
	// registry) must swap the callback under the live sampler.
	reg.GaugeFunc("sim.level", func() int64 { return 9 })
	w.step(clk, time.Second)
	if st := w.Window().Find("sim.level"); st.Last != 9 {
		t.Fatalf("replaced gaugefn not visible: %+v", st)
	}
}

// TestOnWindowOncePerPublishedWindow pins the delivery contract: each
// callback sees every published window exactly once, in registration
// order, and never the priming tick or the tick a clock regression
// resets.
func TestOnWindowOncePerPublishedWindow(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app.x")
	w, clk := newTestWindower(reg, 8)
	var order []string
	var seqs []uint64
	w.OnWindow(func(ws *WindowSnapshot) {
		order = append(order, "first")
		seqs = append(seqs, ws.Seq)
	})
	w.OnWindow(func(*WindowSnapshot) { order = append(order, "second") })

	w.tick() // priming: nothing to publish
	if len(seqs) != 0 {
		t.Fatalf("priming tick delivered %v", seqs)
	}
	for i := 0; i < 3; i++ {
		c.Inc()
		w.step(clk, time.Second)
	}
	clk.set(10 * time.Millisecond) // regression: the reset tick re-primes
	w.tick()
	c.Inc()
	w.step(clk, time.Second)

	if want := []uint64{2, 3, 4, 6}; fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("delivered seqs %v, want %v", seqs, want)
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "first" || order[i+1] != "second" {
			t.Fatalf("callbacks out of registration order: %v", order)
		}
	}
	if len(order) != 2*len(seqs) {
		t.Fatalf("callback calls %v for %d windows", order, len(seqs))
	}
}

// TestOnWindowCancelAndClose checks that a cancelled callback and every
// callback of a closed Windower stop receiving, and that Close ends the
// scheduled tick chain.
func TestOnWindowCancelAndClose(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("app.x")
	clk := &handClock{}
	w := NewWindower(reg, WindowConfig{Interval: time.Second, Clock: clk})
	var kept, cancelled int
	cancel := w.OnWindow(func(*WindowSnapshot) { cancelled++ })
	w.OnWindow(func(*WindowSnapshot) { kept++ })

	clk.fire() // priming
	clk.fire()
	cancel()
	cancel() // idempotent
	clk.fire()
	if kept != 2 || cancelled != 1 {
		t.Fatalf("kept=%d cancelled=%d, want 2 and 1", kept, cancelled)
	}

	stale := clk.pending
	w.Close()
	if !clk.stopped {
		t.Fatal("Close did not cancel the pending tick")
	}
	stale() // a tick that lost the race with Close
	w.tick()
	if kept != 2 || clk.pending != nil {
		t.Fatalf("tick after Close: kept=%d, re-armed=%v", kept, clk.pending != nil)
	}
	w.OnWindow(func(*WindowSnapshot) { kept++ })()
	w.OnWindow(func(*WindowSnapshot) { kept++ })
	w.tick()
	if kept != 2 {
		t.Fatal("callback registered after Close ran")
	}
}

// TestOnWindowCallbackMayReadWindow: callbacks run with no Windower lock
// held, so polling the current window from one must not deadlock.
func TestOnWindowCallbackMayReadWindow(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app.x")
	w, clk := newTestWindower(reg, 8)
	var got int64 = -1
	w.OnWindow(func(*WindowSnapshot) {
		got = w.Window().Find("app.x").Last
		_ = w.Samples()
	})
	w.tick()
	c.Add(4)
	done := make(chan struct{})
	go func() {
		w.step(clk, time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("callback calling Window deadlocked")
	}
	if got != 4 {
		t.Fatalf("Window from a callback saw last=%d, want 4", got)
	}
}

// handClock is a SampleClock whose one pending tick the test fires.
type handClock struct {
	now     time.Duration
	pending func()
	stopped bool
}

func (c *handClock) Now() time.Duration { return c.now }

func (c *handClock) Schedule(_ time.Duration, f func()) func() bool {
	c.pending = f
	return func() bool {
		c.stopped = true
		c.pending = nil
		return true
	}
}

// fire advances to the pending tick and runs it; the tick re-arms.
func (c *handClock) fire() {
	f := c.pending
	c.pending = nil
	c.now += time.Second
	f()
}

func TestWindowerLiveCadence(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app.x")
	w := NewWindower(reg, WindowConfig{Interval: 5 * time.Millisecond})
	defer w.Close()
	windows := make(chan *WindowSnapshot, 4)
	w.OnWindow(func(ws *WindowSnapshot) {
		select {
		case windows <- ws:
		default: // callbacks must not block
		}
	})
	deadline := time.After(5 * time.Second)
	for i := 0; i < 3; i++ {
		c.Add(10)
		select {
		case ws := <-windows:
			if ws == nil {
				t.Fatal("nil window")
			}
		case <-deadline:
			t.Fatal("no windows published on live cadence")
		}
	}
	if w.Samples() < 3 {
		t.Fatalf("samples = %d", w.Samples())
	}
}

func TestWindowSnapshotDashboard(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("b.ctr")
	hist := reg.Histogram("a.lat_ns", []int64{100, 1000})
	w, clk := newTestWindower(reg, 8)
	w.tick()
	ctr.Add(3)
	hist.Observe(500)
	w.step(clk, time.Second)
	ws := w.Window()

	// Series sorted by name for stable diffing.
	if len(ws.Series) != 2 || ws.Series[0].Name != "a.lat_ns" || ws.Series[1].Name != "b.ctr" {
		t.Fatalf("series order: %+v", ws.Series)
	}

	dash := ws.Dashboard()
	for _, want := range []string{"a.lat_ns", "b.ctr", "p95"} {
		if !strings.Contains(dash, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, dash)
		}
	}
	var nilWS *WindowSnapshot
	if !strings.Contains(nilWS.Dashboard(), "disabled") {
		t.Fatal("nil snapshot dashboard")
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q.h", []int64{10, 20, 40})
	for i := 0; i < 50; i++ {
		h.Observe(5)
	}
	for i := 0; i < 50; i++ {
		h.Observe(15)
	}
	h.Observe(1000) // overflow
	snap := reg.Snapshot().Histograms["q.h"]
	if p := snap.Quantile(0.25); p <= 0 || p > 10 {
		t.Fatalf("p25 = %d", p)
	}
	if p := snap.Quantile(0.75); p <= 10 || p > 20 {
		t.Fatalf("p75 = %d", p)
	}
	// Overflow samples report the last bound.
	if p := snap.Quantile(1.0); p != 40 {
		t.Fatalf("p100 = %d, want 40 (last bound)", p)
	}
	if p := (HistSnapshot{}).Quantile(0.5); p != 0 {
		t.Fatalf("empty quantile = %d", p)
	}
}

// TestWindowerSampleAllocFree pins the tentpole contract: a live
// Windower's steady-state sample tick performs zero allocations, even
// with counters, gauges, gauge funcs, and histograms all registered.
func TestWindowerSampleAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is unreliable under the race detector")
	}
	reg := NewRegistry()
	ctr := reg.Counter("app.ops")
	gauge := reg.Gauge("app.depth")
	hist := reg.Histogram("app.lat_ns", LatencyBuckets)
	reg.GaugeFunc("app.level", func() int64 { return 11 })

	w, clk := newTestWindower(reg, 16)
	// Warm: absorb all series (registration-time allocation) and fill
	// the ring once.
	for i := 0; i < 20; i++ {
		w.step(clk, time.Second)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ctr.Add(3)
		gauge.Set(7)
		hist.Observe(int64(50 * time.Microsecond))
		w.step(clk, time.Second)
	})
	if allocs != 0 {
		t.Fatalf("windower sample path allocates: %v allocs/op, want 0", allocs)
	}
}
