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
	// blocking marks the calling goroutine as about to block on channels
	// fed by simulation activity; the returned func unmarks it.
	blocking() func()
	// park blocks the caller until the parker is woken.
	park(p *parker)
	// noteWake records that a parked goroutine was just released.
	noteWake()
	stop()
	eventDriven() bool
}

// VTimer is a cancelable timer returned by Clock.AfterFunc, covering
// both cores (a real time.Timer under the legacy core, a scheduled event
// under the event core).
type VTimer struct {
	stopFn func() bool
}

// Stop cancels the timer. It reports whether the call prevented the
// timer from firing.
func (t *VTimer) Stop() bool {
	if t == nil || t.stopFn == nil {
		return false
	}
	return t.stopFn()
}

// parker is a one-shot park/unpark token: a goroutine parks on it at a
// blocking point (Read, Sleep, Accept, deadline waits) and any event or
// goroutine wakes it at most once. The buffered channel makes the wake
// safe to deliver before the park.
type parker struct {
	clock *Clock
	ch    chan struct{}
}

func (c *Clock) newParker() *parker {
	return &parker{clock: c, ch: make(chan struct{}, 1)}
}

// wake releases the parker. The caller must ensure single delivery
// (conn/listener waiter lists pop the parker before waking, so a parker
// never receives two signals).
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

// Blocking marks the calling goroutine as about to block on simulation
// channels (a channel an AfterFunc timer feeds, a control queue fed by a
// parked reader). It returns the func that unmarks it; call it as soon
// as the select returns. On the legacy core this is a no-op; on the event core it
// nudges the scheduler's quiescence detector so virtual time does not
// race ahead of the goroutine's reaction.
func (c *Clock) Blocking() func() { return c.core.blocking() }

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

// park blocks the calling goroutine on the parker.
func (c *Clock) park(p *parker) { c.core.park(p) }

// realCore maps virtual time onto scaled wall time: the original simnet
// behavior, kept behind NewClock so existing tests migrate to the event
// core incrementally.
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
	t := time.AfterFunc(rc.real(d), f)
	return &VTimer{stopFn: t.Stop}
}

func (rc *realCore) blocking() func() { return func() {} }
func (rc *realCore) noteWake()        {}
func (rc *realCore) stop()            {}

func (rc *realCore) park(p *parker) { <-p.ch }

// real converts a virtual duration into a wall-clock duration.
func (rc *realCore) real(d time.Duration) time.Duration {
	rd := time.Duration(float64(d) * rc.scaleV)
	if d > 0 && rd <= 0 {
		rd = 1 // never round a positive wait down to zero
	}
	return rd
}
