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
	w := newWindower(reg, WindowConfig{Interval: time.Second, Slots: slots, Clock: clk})
	return w, clk
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
	s := w.Subscribe(4)
	if s != nil {
		t.Fatalf("nil Subscribe = %v, want nil", s)
	}
	s.Close()
	if s.C() != nil {
		t.Fatal("nil Stream.C() should be nil")
	}
	if s.Dropped() != 0 {
		t.Fatal("nil Stream.Dropped() should be 0")
	}
	var ws *WindowSnapshot
	if ws.Find("x") != nil {
		t.Fatal("nil snapshot Find should be nil")
	}
	if got := ws.AppendLineProtocol(nil); got != nil {
		t.Fatalf("nil snapshot line protocol = %q", got)
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

func TestStreamDropOldest(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app.x")
	w, clk := newTestWindower(reg, 8)
	st := w.Subscribe(2)
	w.tick() // priming: not published

	for i := 0; i < 5; i++ {
		c.Inc()
		w.step(clk, time.Second)
	}
	// 5 published windows into a depth-2 channel: the 3 oldest drop.
	if d := st.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
	first := <-st.C()
	second := <-st.C()
	if first.Seq >= second.Seq {
		t.Fatalf("stream out of order: %d then %d", first.Seq, second.Seq)
	}
	// The newest window survives.
	if second.Find("app.x").Last != 5 {
		t.Fatalf("newest window lost: %+v", second.Find("app.x"))
	}
	select {
	case <-st.C():
		t.Fatal("expected empty channel")
	default:
	}

	st.Close()
	if _, ok := <-st.C(); ok {
		t.Fatal("closed stream channel should be closed")
	}
	// Publishing after close must not panic.
	c.Inc()
	w.step(clk, time.Second)

	st2 := w.Subscribe(1)
	w.Close()
	if _, ok := <-st2.C(); ok {
		t.Fatal("windower Close should close subscriber channels")
	}
	if s := w.Subscribe(1); s == nil {
		t.Fatal("Subscribe after Close should return a closed, non-nil stream")
	} else if _, ok := <-s.C(); ok {
		t.Fatal("post-Close subscription should be closed")
	}
}

func TestWindowerLiveCadence(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app.x")
	w := NewWindower(reg, WindowConfig{Interval: 5 * time.Millisecond, Slots: 16})
	defer w.Close()
	st := w.Subscribe(4)
	deadline := time.After(5 * time.Second)
	for i := 0; i < 3; i++ {
		c.Add(10)
		select {
		case ws := <-st.C():
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

func TestWindowSnapshotLineProtocolAndDashboard(t *testing.T) {
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

	lp := string(ws.LineProtocol())
	lines := strings.Split(strings.TrimSpace(lp), "\n")
	if len(lines) != 2 {
		t.Fatalf("line protocol lines = %d:\n%s", len(lines), lp)
	}
	if !strings.HasPrefix(lines[0], "a.lat_ns,kind=hist ") {
		t.Fatalf("hist line = %q", lines[0])
	}
	for _, want := range []string{"count=1i", "sum=500i", "p95="} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("hist line missing %q: %q", want, lines[0])
		}
	}
	if !strings.Contains(lines[1], "b.ctr,kind=counter last=3i,rate=") {
		t.Fatalf("counter line = %q", lines[1])
	}
	ts := fmt.Sprintf(" %d", int64(ws.At))
	if !strings.HasSuffix(lines[0], ts) || !strings.HasSuffix(lines[1], ts) {
		t.Fatalf("timestamps missing: %q", lines)
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
