package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// workloadSpec names one workload and says why it is in the set.
type workloadSpec struct {
	Name string
	Why  string
}

// The workloads, in the order they run. bulk_stream is two entries: the
// driver wants every end-to-end metric on every workload, so the forward
// and backward rates are the ops_per_s of one workload each.
var workloads = []workloadSpec{
	{"browser_fetch", "whole path: circuit, container, Browser upload, invoke, teardown; 3 handshakes, little VM or bulk crypto"},
	{"function_invoke", "bscript VM on a persistent connection, no handshakes: compute (unboxed ints) + build (accounted strings)"},
	{"bulk_upload", "datapath forward: client seals 3 layers, goroutine relays peel; codec, BatchWriter, stream crypto, simnet conn"},
	{"bulk_download", "datapath backward: relays add a layer each, client peels 3; same layers as bulk_upload, opposite use"},
	{"circuit_churn", "event clock + light-ingress relays: dispatcher, settle, timer wheel; handshake-bound 3-hop builds by 192 drivers"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	// warmupShare of the timed duration runs first and is discarded
	// (2 s before 20 s).
	warmupShare = 0.1
	// churnNominalRate sizes circuit_churn's fixed population: this many
	// clients per requested second, about what one core of this box sustains, so the
	// run lasts about as long as asked. A fixed population (not a
	// deadline) keeps peak heap a function of the code, not of its speed.
	churnNominalRate = 900
	// rateSlices is how many equal slices of the timed window the
	// throughput median is taken over.
	rateSlices = 5
)

// passConfig is one pass of one workload.
type passConfig struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Traced   bool
	// SetupOnce times a single set-up instead of a second's worth: the
	// traced stage reports no setup_s.
	SetupOnce bool
}

// pass is everything measured in one pass, before it is turned into
// named metrics.
type pass struct {
	Workload  string
	Attempted int
	Failed    int
	FirstErr  string

	SetupS   []float64 // one entry per timed set-up
	WindowNs int64
	Ends     []int64   // completion offsets of successful ops in the window
	LatNs    []float64 // their host latencies, sorted

	CPUNs      float64
	PeakHeap   uint64
	LiveHeap   uint64
	Mallocs    uint64
	AllocBytes uint64
	GCCPUNs    float64 // CPU the collector used in the window

	Counters map[string]int64 // registry deltas over the window (traced)
	Spans    []span
	Extra    map[string]float64 // workload-specific figures
}

func (p *pass) ops() int { return len(p.Ends) }

// ---------------------------------------------------------------------
// Process-level meter: CPU, heap and allocation deltas over a window.

type meter struct {
	cpu0    time.Duration
	ms0     runtime.MemStats
	gc0     float64 // collector CPU seconds so far
	peak    atomic.Uint64
	stopped chan struct{}
	done    chan struct{}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics names: heap bytes in objects, live or not yet swept;
// and the collector's CPU seconds.
const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	gcCPU       = "/cpu/classes/gc/total:cpu-seconds"
)

func readMetrics(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// startMeter begins a window. The heap sampler reads a runtime metric
// every 20 ms; unlike ReadMemStats that does not stop the world, so the
// sampling can be dense enough to catch the top of each GC cycle.
func startMeter() *meter {
	m := &meter{stopped: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&m.ms0)
	m.gc0 = readMetrics(gcCPU)[0]
	m.cpu0 = processCPU()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stopped:
				return
			case <-tick.C:
				if h := uint64(readMetrics(heapObjects)[0]); h > m.peak.Load() {
					m.peak.Store(h)
				}
			}
		}
	}()
	return m
}

// stop ends the window and fills the pass's process-level fields.
func (m *meter) stop(p *pass) {
	p.CPUNs = float64(processCPU() - m.cpu0)
	close(m.stopped)
	<-m.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.peak.Load() {
		m.peak.Store(ms.HeapAlloc)
	}
	p.PeakHeap = m.peak.Load()
	p.Mallocs = ms.Mallocs - m.ms0.Mallocs
	p.AllocBytes = ms.TotalAlloc - m.ms0.TotalAlloc
	p.GCCPUNs = (readMetrics(gcCPU)[0] - m.gc0) * 1e9
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	if after == nil {
		return nil
	}
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ---------------------------------------------------------------------
// Set-up timing

const (
	// setupMinReps and setupBudget: set-ups are timed until there are
	// at least this many and a second of them, setupMaxReps at most.
	setupMinReps = 5
	setupMaxReps = 100
	setupBudget  = time.Second
)

// timeSetups runs setup (world, clients, first cold op) and teardown
// repeatedly, timing each, and hands the last instance to the caller.
// Several samples, because one set-up of a few milliseconds on a shared
// box is mostly noise; once makes it a single one.
func timeSetups[T any](once bool, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var times []float64
	var total time.Duration
	for {
		start := time.Now()
		inst, err := setup()
		took := time.Since(start)
		if err != nil {
			var zero T
			return zero, times, err
		}
		times = append(times, took.Seconds())
		total += took
		if once || len(times) >= setupMaxReps || (len(times) >= setupMinReps && total >= setupBudget) {
			return inst, times, nil
		}
		teardown(inst)
	}
}

// ---------------------------------------------------------------------
// Closed loop, one client: browser_fetch, function_invoke, bulk_*.

// looper is one set-up instance of a single-client workload.
type looper struct {
	op       func(tr *recorder) error
	counters func() map[string]int64
	close    func()
}

func setupLooper(name string, seed int64, traced bool) (*looper, error) {
	var l *looper
	switch name {
	case "browser_fetch":
		s, err := newFetchSUT(seed, traced)
		if err != nil {
			return nil, err
		}
		l = &looper{op: s.op, counters: s.counters, close: s.close}
	case "function_invoke":
		s, err := newInvokeSUT(seed, traced)
		if err != nil {
			return nil, err
		}
		l = &looper{op: s.op, counters: s.counters, close: s.close}
	case "bulk_upload", "bulk_download":
		s, err := newBulkSUT(seed, traced)
		if err != nil {
			return nil, err
		}
		op := s.upload
		if name == "bulk_download" {
			op = s.download
		}
		l = &looper{op: op, counters: s.counters, close: s.close}
	default:
		return nil, fmt.Errorf("no workload %q", name)
	}
	// The first op is part of set-up: it pays the cold program cache,
	// lazily allocated batch buffers and first-use pool fills.
	if err := l.op(nil); err != nil {
		l.close()
		return nil, fmt.Errorf("first op: %w", err)
	}
	return l, nil
}

func runLoop(cfg passConfig) (*pass, error) {
	p := &pass{Workload: cfg.Workload, Extra: map[string]float64{}}
	l, setups, err := timeSetups(cfg.SetupOnce,
		func() (*looper, error) { return setupLooper(cfg.Workload, cfg.Seed, cfg.Traced) },
		func(l *looper) { l.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer l.close()
	p.SetupS = setups

	note := func(err error) {
		p.Attempted++
		if err != nil {
			p.Failed++
			if p.FirstErr == "" {
				p.FirstErr = err.Error()
			}
		}
	}
	warmEnd := time.Now().Add(time.Duration(warmupShare * float64(cfg.Duration)))
	for time.Now().Before(warmEnd) {
		note(l.op(nil))
	}

	var tr *recorder
	start := time.Now()
	if cfg.Traced {
		tr = newRecorder(start)
	}
	before := l.counters()
	m := startMeter()
	type sample struct {
		end int64
		lat float64
	}
	var samples []sample
	for i := int64(0); ; i++ {
		t0 := time.Now()
		if t0.Sub(start) >= cfg.Duration {
			break
		}
		tr.startOp(i)
		sp := tr.begin("op")
		err := l.op(tr)
		tr.end(sp)
		t1 := time.Now()
		note(err)
		if err == nil {
			samples = append(samples, sample{int64(t1.Sub(start)), float64(t1.Sub(t0))})
		}
	}
	p.WindowNs = int64(cfg.Duration)
	m.stop(p)
	p.Counters = counterDelta(before, l.counters())
	p.LiveHeap = heapAfterGC()
	if tr != nil {
		p.Spans = tr.spans
	}
	for _, s := range samples {
		if s.end < p.WindowNs { // the op that straddles the deadline is not counted
			p.Ends = append(p.Ends, s.end)
			p.LatNs = append(p.LatNs, s.lat)
		}
	}
	sort.Float64s(p.LatNs)
	if cfg.Workload == "bulk_upload" || cfg.Workload == "bulk_download" {
		p.Extra["cells_per_op"] = roundCells
	}
	return p, nil
}

// ---------------------------------------------------------------------
// circuit_churn: fixed population, many drivers.

func churnPopulation(d time.Duration) int {
	return max(churnDrivers, int(churnNominalRate*d.Seconds()))
}

func runChurn(cfg passConfig) (*pass, error) {
	// One P: the event core takes a full round of yields with nothing
	// runnable as quiescence, which cannot see a goroutine running on
	// another P. With two, virtual time sprints past a driver mid-
	// handshake to its 60 s read deadline and circuits fail (README.md,
	// recorded limits).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := &pass{Workload: cfg.Workload, Extra: map[string]float64{}}
	s, setups, err := timeSetups(cfg.SetupOnce,
		func() (*churnSUT, error) {
			s, err := newChurnSUT(cfg.Seed, cfg.Traced)
			if err != nil {
				return nil, err
			}
			if r := s.run(churnDrivers, false); r.built != churnDrivers {
				s.close()
				return nil, fmt.Errorf("first circuit did not build: %w", r.firstErr)
			}
			return s, nil
		},
		func(s *churnSUT) { s.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	p.SetupS = setups

	heapBefore := heapAfterGC()
	clients := churnPopulation(cfg.Duration)
	warm := churnPopulation(time.Duration(warmupShare * float64(cfg.Duration)))
	wres := s.run(warm, false)
	p.Attempted += warm
	p.Failed += wres.failed

	before := s.counters()
	m := startMeter()
	res := s.run(clients, cfg.Traced)
	m.stop(p)
	p.Counters = counterDelta(before, s.counters())
	p.LiveHeap = heapAfterGC()

	p.Attempted += clients
	p.Failed += res.failed
	if p.Failed > 0 {
		p.FirstErr = fmt.Sprintf("%d of %d circuits did not build; first: %v", p.Failed, p.Attempted, errors.Join(wres.firstErr, res.firstErr))
	}
	// Every client must have built its circuit.
	if want := clients + int(expectationSkew()); p.Failed == 0 && res.built != want {
		p.Failed++
		p.FirstErr = fmt.Sprintf("%v: %d circuits built, want %d", errWrongOutput, res.built, want)
	}
	sort.Slice(res.ends, func(i, j int) bool { return res.ends[i] < res.ends[j] })
	if n := len(res.ends); n > 0 {
		p.WindowNs = res.ends[n-1] + 1
	}
	p.Ends = res.ends
	p.LatNs = res.latNs
	sort.Float64s(p.LatNs)
	sort.Float64s(res.virtBuild)
	p.Extra["virt_build_p50_ms"] = percentile(res.virtBuild, 0.5)
	p.Extra["virt_build_p99_ms"] = percentile(res.virtBuild, 0.99)
	// Relay cells the drivers sealed (2 EXTENDs, the cover pump, the
	// rendezvous op) and peeled (2 EXTENDEDs, the rendezvous ack).
	p.Extra["client_cells_sent"] = float64(res.built*(2+churnCells) + res.hsOps)
	p.Extra["client_cells_recv"] = float64(res.built*2 + res.hsOps)
	if p.LiveHeap > heapBefore {
		p.Extra["bytes_per_host"] = float64(p.LiveHeap-heapBefore) / float64(warm+clients)
	}
	p.Spans = mergeSpans(res.recs)

	// The relays' own counters must agree with the topology exactly.
	if cfg.Traced && p.Failed == 0 {
		wantFwd, wantBack := churnExpectedRelayCells(clients, res.hsOps)
		gotFwd, gotBack := p.Counters["relay.cells_forwarded"], p.Counters["relay.cells_relayed_back"]
		if gotFwd != wantFwd || gotBack != wantBack {
			p.Failed++
			p.FirstErr = fmt.Sprintf("relay counters: forwarded %d (want %d), relayed back %d (want %d)",
				gotFwd, wantFwd, gotBack, wantBack)
		}
	}
	return p, nil
}

// runPass runs one pass of the named workload.
func runPass(cfg passConfig) (*pass, error) {
	runtime.GC()
	if cfg.Workload == "circuit_churn" {
		return runChurn(cfg)
	}
	return runLoop(cfg)
}
