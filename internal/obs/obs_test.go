package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2, 4, 8})
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(7)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	sp := r.StartSpan("op")
	child := sp.Child("sub")
	child.Note("n")
	child.Fail(errors.New("boom"))
	child.End()
	sp.End()
	r.GaugeFunc("f", func() int64 { return 1 })
	r.SetClock(func() time.Duration { return 0 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if r.Tracer() != nil {
		t.Fatal("nil registry tracer must be nil")
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("relay.cells")
	b := r.Counter("relay.cells")
	if a != b {
		t.Fatal("same name must yield the same counter handle")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("aggregated count = %d, want 2", a.Value())
	}
	h1 := r.Histogram("h", []int64{1, 2, 4, 8})
	h2 := r.Histogram("h", LatencyBuckets) // later bounds ignored
	if h1 != h2 {
		t.Fatal("same name must yield the same histogram handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1} // <=10, <=100, overflow
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 || h.Sum() != 1122 || h.max.Load() != 1000 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.max.Load())
	}
}

func TestSpanRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.Start("op")
		sp.End()
	}
	total, retained, dropped := tr.Stats()
	if total != 10 || retained != 4 || dropped != 6 {
		t.Fatalf("total=%d retained=%d dropped=%d, want 10/4/6", total, retained, dropped)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// Oldest-first ordering: IDs 7,8,9,10 survive.
	for i, sp := range spans {
		if want := uint64(7 + i); sp.ID != want {
			t.Errorf("spans[%d].ID = %d, want %d", i, sp.ID, want)
		}
	}
}

func TestSpansVirtualClockAndHierarchy(t *testing.T) {
	r := NewRegistry()
	var now time.Duration
	r.SetClock(func() time.Duration { return now })

	root := r.StartSpan("circuit.build")
	now = 10 * time.Millisecond
	hop := root.Child("circuit.hop")
	hop.Note("guard3")
	now = 25 * time.Millisecond
	hop.End()
	now = 40 * time.Millisecond
	root.Fail(errors.New("timeout"))
	root.End()

	spans := r.Tracer().Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	h, rt := spans[0], spans[1]
	if h.Name != "circuit.hop" || h.Parent != rt.ID || h.Note != "guard3" {
		t.Fatalf("child span malformed: %+v (root %+v)", h, rt)
	}
	if h.Start != 10*time.Millisecond || h.Dur != 15*time.Millisecond {
		t.Fatalf("child timing start=%v dur=%v", h.Start, h.Dur)
	}
	if rt.Dur != 40*time.Millisecond || rt.Err != "timeout" {
		t.Fatalf("root timing/err: %+v", rt)
	}

	slow := r.Tracer().Slowest(1)
	if len(slow) != 1 || slow[0].Name != "circuit.build" {
		t.Fatalf("Slowest(1) = %+v", slow)
	}
}

func TestSnapshotAndDashboard(t *testing.T) {
	r := NewRegistry()
	r.SetClock(func() time.Duration { return time.Second })
	r.Counter("relay.cells_forwarded").Add(41)
	r.Counter("relay.cells_forwarded").Inc()
	r.Gauge("simnet.open_conns").Set(3)
	r.GaugeFunc("simnet.backlog_bytes", func() int64 { return 512 })
	r.Histogram("relay.flush_cells", []int64{1, 2, 4, 8, 16}).Observe(8)
	r.Histogram("torclient.build_ns", LatencyBuckets).ObserveDuration(3 * time.Millisecond)
	sp := r.StartSpan("hs.publish")
	sp.End()

	s := r.Snapshot()
	if s.Counters["relay.cells_forwarded"] != 42 {
		t.Fatalf("counter = %d", s.Counters["relay.cells_forwarded"])
	}
	if s.Gauges["simnet.open_conns"] != 3 || s.Gauges["simnet.backlog_bytes"] != 512 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if h := s.Histograms["relay.flush_cells"]; h.Count != 1 || h.Sum != 8 {
		t.Fatalf("hist = %+v", h)
	}
	if s.Spans.Total != 1 || len(s.Spans.Slowest) != 1 {
		t.Fatalf("spans = %+v", s.Spans)
	}
	if s.TakenAt != time.Second {
		t.Fatalf("TakenAt = %v", s.TakenAt)
	}

	// JSON round-trips.
	var back Snapshot
	if err := json.Unmarshal(s.JSON(), &back); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if back.Counters["relay.cells_forwarded"] != 42 {
		t.Fatal("JSON round-trip lost counter")
	}

	dash := s.Dashboard()
	for _, want := range []string{"[relay]", "[simnet]", "[torclient]", "cells_forwarded", "hs.publish", "spans: 1 total"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard missing %q:\n%s", want, dash)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", CountBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
				r.Gauge("g").Set(int64(j))
				sp := r.StartSpan("op")
				sp.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot().Dashboard()
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("c=%d h=%d", c.Value(), h.Count())
	}
}

// TestHotPathAllocFree locks in the tentpole contract: pre-registered
// handle updates are allocation-free, live registry or nil.
func TestHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBuckets)
	var nc *Counter
	var nh *Histogram
	fn := func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(-1)
		h.Observe(123456)
		nc.Inc()
		nh.Observe(1)
	}
	fn()
	if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
		t.Fatalf("hot-path metric updates allocate %.2f/op, want 0", allocs)
	}
}
