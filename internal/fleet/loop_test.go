package fleet

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/torclient"
)

// bareController runs a controller on its own host of a fresh network
// on clock, with reg attached. The directory never answers, so a spec
// it is given is never placed: the loop only ticks and reconciles.
func bareController(t *testing.T, clock *simnet.Clock, reg *obs.Registry) *Controller {
	t.Helper()
	n := simnet.NewNetwork(clock, 0)
	n.SetObs(reg)
	c, err := New(Config{
		Client: bento.NewClient(torclient.New(n.AddHost("ctl", 0), nil, 1), nil),
		Consensus: func() (*dirauth.Consensus, error) {
			return nil, errors.New("no directory")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestControllerWakesLeaveNoTimers: every early wake-up of the reconcile
// loop stops the tick it armed, so once the controller is closed no
// stale tick fires. The event core's sched_batch_events histogram sums
// the events that fired.
func TestControllerWakesLeaveNoTimers(t *testing.T) {
	clock := simnet.NewEventClock()
	defer clock.Stop()
	reg := obs.NewRegistry()
	c := bareController(t, clock, reg)
	fired := reg.Histogram("simnet.sched_batch_events", nil)

	const wakes = 20
	for i := 0; i < wakes; i++ {
		c.kick()
		clock.Sleep(time.Millisecond)
	}
	c.Close() // returns once the loop has stopped its tick and exited

	// Read the sum from dispatcher callbacks: the dispatcher records a
	// batch after firing it, so a read there sees every earlier batch.
	var before, after int64
	done := make(chan struct{})
	clock.AfterFunc(0, func() {
		before = fired.Sum()
		clock.AfterFunc(2*reconcileInterval, func() {
			after = fired.Sum()
			close(done)
		})
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clock never reached the end of the window")
	}
	// One event is the first read itself.
	if stale := after - before - 1; stale != 0 {
		t.Fatalf("%d events fired after Close (%d early wake-ups), want 0", stale, wakes)
	}
}

// handClock is an obs.SampleClock whose one pending tick the test fires.
type handClock struct {
	now     time.Duration
	pending func()
}

func (c *handClock) Now() time.Duration { return c.now }

func (c *handClock) Schedule(_ time.Duration, f func()) func() bool {
	c.pending = f
	return func() bool { c.pending = nil; return true }
}

func (c *handClock) fire() {
	f := c.pending
	c.pending = nil
	c.now += time.Second
	f()
}

// TestAutoscalerEvaluatesOnTheTick: the autoscaler starts no goroutine;
// it evaluates on the Windower's own tick, exactly once per published
// window, and not after Close.
func TestAutoscalerEvaluatesOnTheTick(t *testing.T) {
	// Scale 100: the controller's own tick is 30 wall seconds away, so no
	// timer goroutine comes or goes while the test counts.
	clock := simnet.NewClock(100)
	reg := obs.NewRegistry()
	c := bareController(t, clock, reg)
	if err := c.Apply(&Spec{
		Name:     "hand",
		Replicas: 1,
		Manifest: &policy.Manifest{Name: "hand", Image: "python", Memory: 1 << 20, Instructions: 1000},
		Source:   "def f():\n    return 1\n",
	}); err != nil {
		t.Fatal(err)
	}
	hand := &handClock{}
	wind := obs.NewWindower(reg, obs.WindowConfig{Interval: time.Second, Clock: hand})
	defer wind.Close()

	before := runtime.NumGoroutine()
	a, err := NewAutoscaler(AutoscaleConfig{
		Controller: c, Windower: wind,
		MinReplicas: 1, MaxReplicas: 3,
		HighWater: 10, LowWater: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("NewAutoscaler started goroutines: %d -> %d", before, after)
	}

	const ticks = 5
	for i := 0; i < ticks; i++ {
		hand.fire()
	}
	// The first tick primes the ring and publishes nothing.
	if got := a.am.evals.Value(); got != ticks-1 {
		t.Fatalf("evaluations = %d over %d ticks, want %d", got, ticks, ticks-1)
	}
	a.Close()
	hand.fire()
	if got := a.am.evals.Value(); got != ticks-1 {
		t.Fatalf("evaluated after Close: %d", got)
	}
}
