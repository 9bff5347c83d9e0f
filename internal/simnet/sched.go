package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bento-nfv/bento/internal/obs"
)

// schedObs is the dispatcher's instrumentation bundle: wall-clock
// settle cost (quiescence detection is the event core's real CPU
// price — see ROADMAP "profile the settle loop"), events fired per
// virtual jiffy, and settles elided by the park-side/schedule-side
// split. Attached atomically via Network.SetObs on event-driven
// clocks; absent, every hook is one nil check.
type schedObs struct {
	settleNs      *obs.Histogram // wall ns per settle round-trip
	batchEvents   *obs.Histogram // events fired per jiffy (cancelled ones excluded)
	settles       *obs.Counter
	settlesElided *obs.Counter // batches that scheduled work but needed no settle
	batches       *obs.Counter
}

// eventCore is the discrete-event clock: a virtual now, a hierarchical
// timer wheel, and a single dispatcher goroutine that advances time
// event-to-event. Nothing here touches the wall clock, so a run's
// virtual timeline is a pure function of the events scheduled into it.
//
// Host goroutines (relay accept loops, torclient circuits, bento
// sessions — real blocking code) interoperate through the park/unpark
// bridge: their blocking points (Clock.Sleep and every Cond.Wait — conn
// reads and writes, accepts, control and stream waits) park on a
// one-shot token, and the events that satisfy them (a delivery, a
// timer) wake the token. The dispatcher only advances
// virtual time when the system looks quiescent: every park-side bridge
// operation bumps an activity counter and raises `bridged`, and before
// each advance the dispatcher yields the OS scheduler until a full
// round passes with no bridge activity, giving freshly-woken goroutines
// time to run to their next blocking point.
//
// The settle is elided for pure event-native epochs: scheduling from
// inside a dispatcher callback (a deliver handler arming the next
// delivery, an AfterFunc chain rescheduling itself) cannot leave a
// goroutine in flight, so it raises only `schedOnly`, not `bridged`,
// and the dispatcher advances straight to the next jiffy. That split —
// park-side signals settle, schedule-side from the dispatcher does
// not — is what makes 500k+ event-native hosts dispatcher-cheap.
type eventCore struct {
	clock *Clock // backlink for parkers

	mu      sync.Mutex
	cond    *sync.Cond // dispatcher waits here while the wheel is empty
	wheel   *wheel
	seq     uint64
	stopped bool

	nowNs     atomic.Int64
	activity  atomic.Uint64 // bumped by park/wake/spawn/schedule transitions
	bridged   atomic.Bool   // park-side bridge op since the last settle?
	schedOnly atomic.Bool   // dispatcher-context scheduling since the last batch?
	firing    atomic.Bool   // dispatcher is inside its fire loop
	stopFlag  atomic.Bool   // mirror of stopped for lock-free checks in settle
	done      chan struct{} // closed when the dispatcher goroutine exits
	dispatchG atomic.Uint64 // the dispatcher goroutine's id
	obsH      atomic.Pointer[schedObs]
}

func newEventCore(start time.Duration) *eventCore {
	ec := &eventCore{wheel: newWheel(int64(start)), done: make(chan struct{})}
	ec.cond = sync.NewCond(&ec.mu)
	ec.nowNs.Store(int64(start))
	return ec
}

func (ec *eventCore) scale() float64    { return 1.0 }
func (ec *eventCore) eventDriven() bool { return true }

func (ec *eventCore) now() time.Duration {
	return time.Duration(ec.nowNs.Load())
}

// schedule enqueues fn to run at now+d and returns the event for
// cancellation. d is clamped to zero: nothing fires in the past.
func (ec *eventCore) schedule(d time.Duration, fn func()) *event {
	if d < 0 {
		d = 0
	}
	ec.noteSchedule()
	ec.mu.Lock()
	ec.seq++
	e := &event{due: ec.nowNs.Load() + int64(d), seq: ec.seq, fn: fn}
	ec.wheel.insert(e)
	ec.mu.Unlock()
	ec.cond.Signal()
	return e
}

func (ec *eventCore) afterFunc(d time.Duration, f func()) *VTimer {
	e := ec.schedule(d, f)
	return &VTimer{stopFn: func() bool {
		// Racing the dispatcher is resolved by the state CAS: exactly one
		// of Stop and the fire loop claims the event, even when the batch
		// holding it has already been popped from the wheel.
		if e.state.CompareAndSwap(evPending, evCancelled) {
			e.fn = nil
			return true
		}
		return false
	}}
}

func (ec *eventCore) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	p := ec.clock.newParker()
	ec.schedule(d, p.wake)
	ec.park(p)
}

func (ec *eventCore) park(p *parker) {
	ec.noteBridge()
	<-p.ch
	ec.noteBridge()
}

func (ec *eventCore) noteWake() { ec.noteBridge() }

// noteBridge records a park-side bridge transition: a goroutine parked,
// was woken, or was started or ended by Clock.Go. These are the
// operations that can leave a goroutine in flight, so they demand a
// settle before the next virtual advance.
func (ec *eventCore) noteBridge() {
	ec.activity.Add(1)
	ec.bridged.Store(true)
}

// noteSchedule records schedule-side activity. The activity bump holds
// any in-progress settle open (a woken goroutine that reacts by
// scheduling — a Write arming a delivery — must not look quiescent
// mid-reaction), but scheduling only demands a settle of its own when
// it comes from outside the dispatcher: a callback scheduling from the
// fire loop is event-native and leaves nothing in flight. External
// goroutines always reach the core through a wake or a park first, both
// of which raise `bridged`, so eliding here never advances time past a
// goroutine still running.
func (ec *eventCore) noteSchedule() {
	ec.activity.Add(1)
	if ec.firing.Load() {
		ec.schedOnly.Store(true)
	} else {
		ec.bridged.Store(true)
	}
}

// stop returns once the dispatcher has exited, so a caller counting
// goroutines after Stop does not count it — unless a dispatcher callback
// calls it, which cannot wait for its own loop.
func (ec *eventCore) stop() {
	ec.stopFlag.Store(true)
	ec.mu.Lock()
	ec.stopped = true
	ec.mu.Unlock()
	ec.cond.Signal()
	if goid() != ec.dispatchG.Load() {
		<-ec.done
	}
}

// goid is the calling goroutine's id, from its stack trace's header
// ("goroutine 17 [running]:").
func goid() (id uint64) {
	var buf [32]byte
	for _, c := range buf[len("goroutine "):runtime.Stack(buf[:], false)] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// settle yields until a full scheduling round passes with no bridge
// activity, so goroutines woken by the previous batch reach their next
// park (or exit) before virtual time moves again. After a burst of
// stubborn rounds it backs off with tiny real sleeps rather than
// spinning against a long-running computation. Stop aborts the wait:
// shutdown must not stall behind a host goroutine that never quiesces.
func (ec *eventCore) settle() {
	for round := 0; ; round++ {
		if ec.stopFlag.Load() {
			return
		}
		before := ec.activity.Load()
		runtime.Gosched()
		runtime.Gosched()
		runtime.Gosched()
		if ec.activity.Load() == before {
			return
		}
		if round > 16 {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// run is the dispatcher loop: wait for events, settle the bridge if any
// park-side activity occurred, pop the earliest jiffy, advance virtual
// time once to the batch's latest due, and fire the batch lock-free in
// (due, seq) order — cancellation is the per-event state CAS, so the
// scheduler mutex is touched once per batch, not once per event.
func (ec *eventCore) run() {
	ec.dispatchG.Store(goid())
	defer close(ec.done)
	for {
		ec.mu.Lock()
		for ec.wheel.len() == 0 && !ec.stopped {
			ec.cond.Wait()
		}
		if ec.stopped {
			ec.mu.Unlock()
			return
		}
		if ec.bridged.Swap(false) {
			ec.schedOnly.Store(false)
			ec.mu.Unlock()
			if o := ec.obsH.Load(); o != nil {
				t0 := time.Now()
				ec.settle()
				o.settleNs.Observe(int64(time.Since(t0)))
				o.settles.Inc()
			} else {
				ec.settle()
			}
			ec.mu.Lock()
			if ec.stopped || ec.wheel.len() == 0 {
				ec.mu.Unlock()
				continue
			}
		} else if ec.schedOnly.Swap(false) {
			// Work was scheduled since the last batch, but only from
			// dispatcher callbacks: the old core would have settled here
			// for nothing.
			if o := ec.obsH.Load(); o != nil {
				o.settlesElided.Inc()
			}
		}
		batch := ec.wheel.popNext()
		// Advance once to the batch's latest due (the batch is sorted, so
		// that is its last element). Advancing to anything earlier would
		// let a deadline callback fired mid-batch observe Now() before its
		// own due and re-park with no timer left to wake it.
		if last := batch[len(batch)-1].due; last > ec.nowNs.Load() {
			ec.nowNs.Store(last)
		}
		ec.mu.Unlock()
		ec.firing.Store(true)
		fired := 0
		for _, e := range batch {
			if e.state.CompareAndSwap(evPending, evFired) {
				fn := e.fn
				e.fn = nil
				fn()
				fired++
			}
		}
		ec.firing.Store(false)
		if o := ec.obsH.Load(); o != nil {
			o.batchEvents.Observe(int64(fired))
			o.batches.Inc()
		}
	}
}
