package simnet

import (
	"sync"
	"sync/atomic"
)

// Cond is a condition variable whose waits park on the clock. It is the
// one way a simulation goroutine waits — for a delivery, for buffer
// space, for a peer's reply, for other goroutines to finish — and so the
// one wait the event core's quiescence detector sees (DESIGN.md §14).
//
// It keeps sync.Cond's contract: change the condition with L held, and
// call Wait in a loop that re-checks it. Broadcast never blocks and may
// be called with or without L held, from any goroutine or from a
// dispatcher callback. There is no Signal and no timed wait: a timeout
// is a stoppable AfterFunc that sets a flag under L and broadcasts.
//
// A Cond must not be copied after first use.
type Cond struct {
	L       sync.Locker
	clock   *Clock
	waiters atomic.Pointer[parker] // parked Waits, newest first
}

// NewCond returns a Cond on clock whose waits release l.
func NewCond(clock *Clock, l sync.Locker) *Cond {
	return &Cond{L: l, clock: clock}
}

// Wait unlocks L, parks until the next Broadcast, and relocks L before
// returning. The parker joins the list while L is still held, so a
// Broadcast that follows a change made under L cannot miss it.
func (c *Cond) Wait() {
	p := c.clock.newParker()
	for {
		p.next = c.waiters.Load()
		if c.waiters.CompareAndSwap(p.next, p) {
			break
		}
	}
	c.L.Unlock()
	c.clock.core.park(p)
	c.L.Lock()
}

// Broadcast wakes every goroutine parked in Wait.
func (c *Cond) Broadcast() {
	// Every delivery broadcasts; with nobody parked that costs a load,
	// not a write to the list's cache line.
	if c.waiters.Load() == nil {
		return
	}
	for p := c.waiters.Swap(nil); p != nil; {
		next := p.next
		p.wake()
		p = next
	}
}
