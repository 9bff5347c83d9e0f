package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The tail percentile reported is the highest with at least ten samples
// beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},     // p90 would have 9.9 beyond
		{100, 0.90, true},  // exactly 10 beyond p90
		{199, 0.90, true},  // p95 would have 9.95
		{200, 0.95, true},  // exactly 10 beyond p95
		{999, 0.95, true},  // p99 would have 9.99
		{1000, 0.99, true}, // exactly 10 beyond p99
		{10000, 0.999, true},
		{100000, 0.9999, true},
	} {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || !near(got, c.want) {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.95: 10, 0.9: 9, 0.1: 1, 0.11: 2} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(q=%v) = %v, want %v", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples must be 0")
	}
}

// Throughput is the median of equal slices, so one stalled slice does
// not move it.
func TestMedianOfSlices(t *testing.T) {
	const sec = int64(time.Second)
	var ends []int64
	// 5 slices of 1 s: 100, 100, 10 (a stall), 100, 100 ops.
	for slice, n := range []int{100, 100, 10, 100, 100} {
		for i := 0; i < n; i++ {
			ends = append(ends, int64(slice)*sec+int64(i)*sec/int64(n))
		}
	}
	ends = append(ends, 5*sec, -1) // outside the window: ignored
	if got := medianOfSlices(ends, 5*sec, 5); !near(got, 100) {
		t.Errorf("median of slices = %v, want 100 ops/s", got)
	}
	if mean := float64(len(ends)-2) / 5; near(mean, 100) {
		t.Error("test is vacuous: the mean equals the median")
	}
	if medianOfSlices(ends, 0, 5) != 0 || medianOfSlices(ends, sec, 0) != 0 {
		t.Error("degenerate windows must give 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the driver uses for its spread check.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
	// [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if !near(q1, 1.75) || !near(q2, 3.5) || !near(q3, 5.25) {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// >>> statistics.quantiles([10, 20, 30], n=4)
	// [10.0, 20.0, 30.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 30})
	if !near(q1, 10) || !near(q2, 20) || !near(q3, 30) {
		t.Errorf("quartiles = %v %v %v, want 10 20 30", q1, q2, q3)
	}
	if got := spreadShare([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); !near(got, 1) {
		t.Errorf("spread share = %v, want (5.25-1.75)/3.5 = 1", got)
	}
}

// A bound is relative to the parent's median with an absolute floor.
func TestBoundArithmetic(t *testing.T) {
	setup := bound{Rel: 0.25, Abs: 0.05}
	if got := setup.allowance(0.1); !near(got, 0.05) {
		t.Errorf("0.1 s set-up may worsen by %v, want the 0.05 s floor", got)
	}
	if got := setup.allowance(2); !near(got, 0.5) {
		t.Errorf("2 s set-up may worsen by %v, want 25%% = 0.5", got)
	}
	if got := failedShareBound.allowance(0); !near(got, 0.001) {
		t.Errorf("failed_share may worsen by %v from 0, want 0.001 absolute", got)
	}
	if got := (bound{Rel: 0.05}).allowance(-200); !near(got, 10) {
		t.Errorf("relative bound of a negative parent = %v, want 10", got)
	}
}

func TestJudge(t *testing.T) {
	five := bound{Rel: 0.05}
	parent := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		want   verdict
	}{
		{"lower is better, within", []float64{102, 103, 101, 102, 102}, false, verdictWithin},
		{"lower is better, worse", []float64{110, 111, 109, 110, 110}, false, verdictWorse},
		{"lower is better, better", []float64{90, 91, 89, 90, 90}, false, verdictBetter},
		{"higher is better, worse", []float64{90, 91, 89, 90, 90}, true, verdictWorse},
		{"higher is better, better", []float64{110, 111, 109, 110, 110}, true, verdictBetter},
		{"spread wider than bound", []float64{90, 120, 100, 80, 110}, false, verdictUnresolved},
		{"wide spread but every run better", []float64{60, 90, 70, 50, 80}, false, verdictBetter},
		{"no runs", nil, false, verdictUnmeasured},
	} {
		if got := judge(parent, c.change, c.higher, five); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
	// failed_share: absolute bound, parent at zero.
	if got := judge([]float64{0}, []float64{0.0005}, false, failedShareBound); got != verdictWithin {
		t.Errorf("failed_share 0 -> 0.0005: %q, want within", got)
	}
	if got := judge([]float64{0}, []float64{0.002}, false, failedShareBound); got != verdictWorse {
		t.Errorf("failed_share 0 -> 0.002: %q, want worse", got)
	}
	if got := judge([]float64{0}, []float64{0}, false, failedShareBound); got != verdictWithin {
		t.Errorf("failed_share 0 -> 0: %q, want within", got)
	}
}

// What this box cannot measure is null plus a note, never a number.
func TestUnmeasuredEncoding(t *testing.T) {
	blob, err := json.Marshal(unmeasured("ratio", "host has 2 CPUs"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(blob), `{"value":null,"unit":"ratio","note":"unmeasured: host has 2 CPUs"}`; got != want {
		t.Errorf("unmeasured encodes as %s, want %s", got, want)
	}
	blob, err = json.Marshal(value(1.25, "ms"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(blob), `{"value":1.25,"unit":"ms"}`; got != want {
		t.Errorf("value encodes as %s, want %s", got, want)
	}
	blob, err = json.Marshal(value(math.NaN(), "ms"))
	if err != nil {
		t.Fatal(err)
	}
	var back measured
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Value != nil || back.Note == "" {
		t.Errorf("NaN must encode as null with a note, got %s", blob)
	}
	r := newReport(1, time.Second, time.Second, time.Second, 1)
	if _, listed := r.Unmeasured["relay.parallel_scaling_4x"]; listed != (r.HostCPUs < 4) {
		t.Errorf("4x scaling listed as unmeasured = %v on a %d-CPU host", listed, r.HostCPUs)
	}
}

// Self time is a span's duration minus what its direct children cover.
func TestSpanSelfTime(t *testing.T) {
	r := newRecorder(time.Now())
	r.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "connect", Start: 10, End: 40, Parent: 0},
		{Name: "handshake", Start: 15, End: 35, Parent: 1},
		{Name: "invoke", Start: 50, End: 90, Parent: 0},
	}
	st := spanStats(r.spans)
	for name, want := range map[string]float64{"op": 30, "connect": 10, "handshake": 20, "invoke": 40} {
		if got := st[name].SelfNs; got != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	var nilRec *recorder
	nilRec.startOp(1)
	nilRec.end(nilRec.begin("x")) // the untraced configuration must be a no-op

	other := newRecorder(time.Now())
	other.spans = []span{{Name: "op", Start: 0, End: 5, Parent: -1}, {Name: "connect", Start: 1, End: 2, Parent: 0}}
	merged := mergeSpans([]*recorder{r, nil, other})
	if len(merged) != 6 || merged[5].Parent != 4 {
		t.Errorf("merge must rebase parents: got %d spans, last parent %d", len(merged), merged[len(merged)-1].Parent)
	}
}
