package simnet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/obs"
)

// TestBatchMidCancelPinsFireOrder cancels an event from a callback
// firing earlier in the same popped batch. The cancelled event must not
// run, the cancel must be acknowledged (the dispatcher had not claimed
// it), and the surviving events must fire in exact (due, seq) order
// even though the whole jiffy was popped as one lock-free batch.
func TestBatchMidCancelPinsFireOrder(t *testing.T) {
	clock := eventClock(t)
	var order []string
	var tmZ *VTimer
	var stopAck, stopAgain bool
	done := make(chan struct{})

	// Build the batch from dispatcher context so every event is in the
	// wheel before the target jiffy pops: all four land in one jiffy,
	// inserted in non-due order (X, canceller, Y, Z).
	clock.AfterFunc(2*time.Millisecond, func() {
		clock.AfterFunc(80*time.Microsecond, func() { order = append(order, "X") })
		clock.AfterFunc(10*time.Microsecond, func() {
			order = append(order, "cancel")
			stopAck = tmZ.Stop()
			stopAgain = tmZ.Stop()
		})
		clock.AfterFunc(20*time.Microsecond, func() { order = append(order, "Y") })
		tmZ = clock.AfterFunc(50*time.Microsecond, func() { order = append(order, "Z") })
	})
	clock.AfterFunc(10*time.Millisecond, func() { close(done) })

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch never completed")
	}
	if !stopAck {
		t.Fatal("mid-batch Stop on a pending event returned false")
	}
	if stopAgain {
		t.Fatal("second Stop returned true")
	}
	want := []string{"cancel", "Y", "X"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestBatchEventsCountFired: simnet.sched_batch_events sums the events
// that fired. A stopped timer still pops with its jiffy but does not
// count. The timers are armed and stopped from a dispatcher callback, so
// none can fire before its Stop.
func TestBatchEventsCountFired(t *testing.T) {
	clock := eventClock(t)
	reg := obs.NewRegistry()
	clock.setSchedObs(reg)
	fired := reg.Histogram("simnet.sched_batch_events", nil)
	var got int64
	done := make(chan struct{})
	clock.AfterFunc(0, func() {
		clock.AfterFunc(time.Millisecond, func() {})
		clock.AfterFunc(time.Millisecond, func() {})
		clock.AfterFunc(time.Millisecond, func() {}).Stop()
		clock.AfterFunc(2*time.Millisecond, func() {
			got = fired.Sum() // every earlier batch is recorded by now
			close(done)
		})
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("clock never fired")
	}
	if got != 3 {
		t.Fatalf("sched_batch_events sum = %d before the last batch, want 3 (the arming callback and two timers; the stopped one excluded)", got)
	}
}

// TestSettleStopAborts pins that a clock Stop cuts through a settle
// that never quiesces — including its sleep-backoff phase — instead of
// stalling shutdown behind a host goroutine that keeps bridging.
func TestSettleStopAborts(t *testing.T) {
	clock := NewEventClock()
	ec := clock.core.(*eventCore)

	var quit atomic.Bool
	hostileDone := make(chan struct{})
	go func() {
		defer close(hostileDone)
		for !quit.Load() {
			clock.Blocking()() // park-side bridge churn: settle never sees a quiet round
			runtime.Gosched()
		}
	}()
	defer quit.Store(true)

	clock.AfterFunc(time.Millisecond, func() {})
	// Let the dispatcher dig into the settle's backoff phase.
	time.Sleep(20 * time.Millisecond)
	clock.Stop()
	select {
	case <-ec.done:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher did not exit: settle ignored stop")
	}
	quit.Store(true)
	<-hostileDone
}

// TestWheelHorizonEdge places events at the last near-wheel slot and at
// exactly the horizon (cur + wheelSlots jiffies). The horizon event
// must take the far heap — landing it in the near wheel would alias
// slot (cur & slotMask) and fire it a full wheel revolution early.
func TestWheelHorizonEdge(t *testing.T) {
	w := newWheel(0)
	horizon := &event{due: wheelSlots << tickShift, seq: 1}    // jiffy 256: far
	edge := &event{due: (wheelSlots - 1) << tickShift, seq: 2} // jiffy 255: last near slot
	early := &event{due: 1, seq: 3}                            // jiffy 0
	w.insert(horizon)
	w.insert(edge)
	w.insert(early)
	if len(w.far) != 1 {
		t.Fatalf("far heap holds %d events, want exactly the horizon event", len(w.far))
	}
	var fired []*event
	for batch := w.popNext(); batch != nil; batch = w.popNext() {
		fired = append(fired, batch...)
	}
	if len(fired) != 3 || fired[0] != early || fired[1] != edge || fired[2] != horizon {
		t.Fatalf("fire order wrong: got %d events", len(fired))
	}
}

// TestWheelFarMigrationOrdering drains a wheel whose far heap holds
// out-of-order events that must migrate into the near window as the
// cursor jumps, interleaving with resident near events in strict
// (due, seq) order — including a far event whose jiffy has already
// been passed by the cursor jump (clamped to fire immediately).
func TestWheelFarMigrationOrdering(t *testing.T) {
	w := newWheel(0)
	mk := func(due int64, seq uint64) *event { return &event{due: due, seq: seq} }
	farLate := mk(1000<<tickShift|7, 1) // far, fires last
	farMid2 := mk(500<<tickShift|9, 2)  // far, same jiffy as farMid1, later due
	nearNow := mk(3<<tickShift, 3)      // near window
	farMid1 := mk(500<<tickShift|2, 4)  // far, earliest due in jiffy 500
	farTie := mk(500<<tickShift|2, 5)   // exact due tie with farMid1: seq breaks it
	want := []*event{nearNow, farMid1, farTie, farMid2, farLate}
	for _, e := range []*event{farLate, farMid2, nearNow, farMid1, farTie} {
		w.insert(e)
	}
	var fired []*event
	for batch := w.popNext(); batch != nil; batch = w.popNext() {
		fired = append(fired, batch...)
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("position %d: got (due=%d,seq=%d), want (due=%d,seq=%d)",
				i, fired[i].due, fired[i].seq, want[i].due, want[i].seq)
		}
	}

	// A far event behind a jumped cursor is clamped to the current
	// jiffy, never lost: park the cursor far ahead via an empty-near
	// jump, then verify a stale-jiffy far insert still fires.
	w2 := newWheel(0)
	w2.insert(mk(600<<tickShift, 1))
	if batch := w2.popNext(); len(batch) != 1 {
		t.Fatalf("jump pop: %d events", len(batch))
	}
	stale := mk(100<<tickShift, 2) // jiffy far below the cursor
	w2.insert(stale)
	if batch := w2.popNext(); len(batch) != 1 || batch[0] != stale {
		t.Fatal("stale far event lost after cursor jump")
	}
}

// TestVTimerStopRacesPoppedBatch races Stop against the dispatcher
// firing the timer's already-popped batch. The per-event state CAS
// guarantees exactly one winner: the callback runs iff Stop reports
// false.
func TestVTimerStopRacesPoppedBatch(t *testing.T) {
	clock := eventClock(t)
	for i := 0; i < 300; i++ {
		var fired atomic.Bool
		tm := clock.AfterFunc(time.Microsecond, func() { fired.Store(true) })
		stopped := tm.Stop()
		clock.Sleep(time.Millisecond) // past due: the race has resolved
		if stopped == fired.Load() {
			t.Fatalf("iteration %d: stopped=%v fired=%v — not exactly one winner", i, stopped, fired.Load())
		}
	}
}
