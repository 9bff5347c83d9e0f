// Package simnet provides a deterministic in-process network emulator.
//
// A Network holds named Hosts. Hosts open Listeners on numbered ports and
// Dial each other, obtaining net.Conn pairs whose traffic is shaped by
// per-host egress bandwidth (a shared token bucket, so concurrent
// connections on one host contend for the same uplink, as on a real
// machine) and per-link propagation delay.
//
// Time in the emulator is virtual, and there are two ways to make it
// flow. The legacy core (NewClock) maps virtual durations onto
// scaled-down real durations, so an 80-virtual-second experiment can run
// in under a second of wall time. The event core (NewEventClock) is a
// discrete-event scheduler: virtual time jumps from one scheduled event
// to the next with no wall-clock coupling at all, which is what lets a
// single process emulate six-figure host counts. Both cores sit behind
// the same *Clock handle, so every layer built on simnet (relay,
// torclient, hs, bento, fleet) runs unchanged on either.
package simnet

import (
	"sync/atomic"
	"time"
)

// Clock is the emulator's time source. All virtual-time arithmetic in
// the stack goes through one of these; the backing core decides whether
// virtual time tracks scaled wall time (NewClock) or advances
// event-to-event (NewEventClock). The zero Clock is not usable.
type Clock struct {
	core clockCore
}

// clockCore is the strategy behind a Clock.
type clockCore interface {
	scale() float64
	now() time.Duration
	sleep(d time.Duration)
	afterFunc(d time.Duration, f func()) *VTimer
	// park blocks the caller until the parker is woken.
	park(p *parker)
	// noteWake records a bridge transition other than a park: a parked
	// goroutine released, or a goroutine started or ended by Clock.Go.
	noteWake()
	stop()
	eventDriven() bool
}

// VTimer is a cancelable timer returned by Clock.AfterFunc, covering
// both cores (a real time.Timer or, for a zero wait, a goroutine under
// the legacy core; a scheduled event under the event core).
type VTimer struct {
	stopFn func() bool
	// claimed settles a zero wait on the legacy core, which has no stopFn:
	// its goroutine and Stop each try to set it, and only the one that
	// does acts.
	claimed atomic.Bool
}

// Stop cancels the timer. It reports whether the call prevented the
// timer from firing.
func (t *VTimer) Stop() bool {
	if t == nil {
		return false
	}
	if t.stopFn == nil {
		return t.claimed.CompareAndSwap(false, true)
	}
	return t.stopFn()
}

// parker is a one-shot park/unpark token: a goroutine parks on it in
// Sleep or Cond.Wait and an event or another goroutine wakes it at most
// once. The buffered channel makes the wake safe to deliver before the
// park.
type parker struct {
	clock *Clock
	ch    chan struct{}
	next  *parker // the Cond's waiter list
}

func (c *Clock) newParker() *parker {
	return &parker{clock: c, ch: make(chan struct{}, 1)}
}

// wake releases the parker. The caller must ensure single delivery
// (Sleep's timer fires once; Broadcast takes the whole waiter list before
// waking it).
func (p *parker) wake() {
	p.clock.core.noteWake()
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

// NewClock returns a clock running at the given scale (virtual seconds
// per real second is 1/scale), with its epoch pinned to the wall clock
// at the moment of the call. Scale must be positive.
func NewClock(scale float64) *Clock {
	return NewClockAt(scale, time.Now())
}

// NewClockAt returns a scaled-real clock whose epoch is the given wall
// instant instead of time.Now(), so harnesses can pin the virtual origin
// and reproduce timestamp arithmetic run-to-run.
func NewClockAt(scale float64, epoch time.Time) *Clock {
	if scale <= 0 {
		panic("simnet: clock scale must be positive")
	}
	return &Clock{core: &realCore{scaleV: scale, epoch: epoch}}
}

// NewEventClock returns a discrete-event clock starting at virtual time
// zero. Time advances only when the scheduler fires the next pending
// event; wall-clock time never enters the arithmetic, so runs are
// reproducible and idle virtual hours cost nothing.
func NewEventClock() *Clock {
	return NewEventClockAt(0)
}

// NewEventClockAt returns a discrete-event clock whose virtual origin is
// the given offset (useful for differential tests that want both cores
// to report comparable Now values).
func NewEventClockAt(start time.Duration) *Clock {
	ec := newEventCore(start)
	c := &Clock{core: ec}
	ec.clock = c
	go ec.run()
	return c
}

// Scale reports the virtual-to-real scale factor. The event core has no
// wall coupling and reports 1.0, which keeps wall↔virtual conversions
// (Virtual, and the Scale()-based deadline math in the layers above)
// self-consistent: one wall second of API argument means one virtual
// second.
func (c *Clock) Scale() float64 { return c.core.scale() }

// EventDriven reports whether this clock is backed by the discrete-event
// scheduler rather than scaled wall time.
func (c *Clock) EventDriven() bool { return c.core.eventDriven() }

// Now returns the current virtual time as an offset from the clock's
// epoch.
func (c *Clock) Now() time.Duration { return c.core.now() }

// Sleep pauses the caller for the given virtual duration. On the event
// core the goroutine parks and the scheduler advances straight to the
// wake event once the system quiesces.
func (c *Clock) Sleep(d time.Duration) { c.core.sleep(d) }

// AfterFunc schedules f to run after the given virtual duration. Under
// the event core f runs on the dispatcher goroutine; it must not block.
// It is the clock's only timer: a wait that can end early stops it, so
// nothing is left in the runtime's timer heap or the event wheel.
func (c *Clock) AfterFunc(d time.Duration, f func()) *VTimer {
	return c.core.afterFunc(d, f)
}

// Schedule arranges for f to run after d of virtual time and returns a
// cancel func reporting whether it prevented the fire. It is AfterFunc
// with an interface-friendly signature (no simnet types), so packages
// that cannot import simnet — obs drives its windowed sampler this way —
// can match it structurally and run periodic work on the dispatcher
// instead of racing a goroutine select against the quiescence detector.
func (c *Clock) Schedule(d time.Duration, f func()) func() bool {
	return c.AfterFunc(d, f).Stop
}

// Go starts f on a new goroutine, the door for simulation goroutines.
// On the event core the start and the exit are bridge transitions, like
// a wake, so a goroutine started from a dispatcher callback runs to its
// first park before virtual time moves on (DESIGN.md §14.1). On the
// scaled clock it is a plain go statement.
func (c *Clock) Go(f func()) {
	c.core.noteWake()
	go func() {
		defer c.core.noteWake()
		f()
	}()
}

// Stop shuts down the clock's scheduler, releasing the dispatcher
// goroutine of an event clock. Legacy clocks have no scheduler and Stop
// is a no-op. Further timer fires are abandoned.
func (c *Clock) Stop() { c.core.stop() }

// Virtual converts a wall-clock duration into virtual time — the inverse
// of the mapping Sleep applies under the legacy core. Used to translate
// wall-clock deadlines (e.g. net.Conn SetReadDeadline arguments) into
// the virtual domain so all timeout arithmetic lives on one clock.
func (c *Clock) Virtual(wall time.Duration) time.Duration {
	if wall <= 0 {
		return 0
	}
	s := c.core.scale()
	return time.Duration(float64(wall) / s)
}

// realCore maps virtual time onto scaled wall time: the original simnet
// behavior, kept behind NewClock so existing tests migrate to the event
// core incrementally. Its callbacks run concurrently, each on a goroutine
// of its own: a wait that truncates to zero wall nanoseconds (every
// simnet hop at the benchmark's scale) starts its callback at once with a
// go statement, so it usually runs on the scheduling goroutine's core; a
// longer wait goes through a runtime timer, whose goroutine starts on
// whichever core polls the timer heap.
type realCore struct {
	scaleV float64
	epoch  time.Time
}

func (rc *realCore) scale() float64    { return rc.scaleV }
func (rc *realCore) eventDriven() bool { return false }

func (rc *realCore) now() time.Duration {
	return time.Duration(float64(time.Since(rc.epoch)) / rc.scaleV)
}

func (rc *realCore) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(rc.real(d))
}

func (rc *realCore) afterFunc(d time.Duration, f func()) *VTimer {
	rd := time.Duration(float64(d) * rc.scaleV)
	if rd <= 0 {
		t := &VTimer{}
		go t.runNow(f)
		return t
	}
	t := time.AfterFunc(rd, f)
	return &VTimer{stopFn: t.Stop}
}

// runNow is a zero wait's goroutine: it runs f unless Stop came first.
func (t *VTimer) runNow(f func()) {
	if t.claimed.CompareAndSwap(false, true) {
		f()
	}
}

func (rc *realCore) noteWake() {}
func (rc *realCore) stop()     {}

func (rc *realCore) park(p *parker) { <-p.ch }

// real converts a virtual duration into a wall-clock duration.
func (rc *realCore) real(d time.Duration) time.Duration {
	rd := time.Duration(float64(d) * rc.scaleV)
	if d > 0 && rd <= 0 {
		rd = 1 // never round a positive wait down to zero
	}
	return rd
}
