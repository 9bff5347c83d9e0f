package simnet

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// bothCores runs f on a scaled clock and on an event clock. The scaled
// one runs at the benchmark's scale, where a 1µs wait is half a wall
// nanosecond: a zero wait.
func bothCores(t *testing.T, f func(t *testing.T, clock *Clock)) {
	t.Run("scaled", func(t *testing.T) { f(t, NewClock(0.0005)) })
	t.Run("event", func(t *testing.T) { f(t, eventClock(t)) })
}

// within fails the test unless done closes within five wall seconds.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: waiter never woke", what)
	}
}

// TestCondNoLostWakeup races a Broadcast against a Wait many times, with
// the broadcaster holding L and without it. The broadcaster changes the
// condition as soon as it can take L from a waiter inside Wait, which is
// the window in which a parker not yet on the list would miss the wake.
func TestCondNoLostWakeup(t *testing.T) {
	bothCores(t, func(t *testing.T, clock *Clock) {
		var mu sync.Mutex
		c := NewCond(clock, &mu)
		for i := 0; i < 2000; i++ {
			waiting, ready := false, false
			done := make(chan struct{})
			go func() {
				mu.Lock()
				for !ready {
					waiting = true
					c.Wait()
				}
				mu.Unlock()
				close(done)
			}()
			mu.Lock()
			for !waiting {
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
			}
			ready = true
			if i%2 == 0 {
				c.Broadcast()
				mu.Unlock()
			} else {
				mu.Unlock()
				c.Broadcast()
			}
			within(t, done, "racing Broadcast")
		}
	})
}

// TestCondBroadcastFromTimer: a stoppable AfterFunc that sets a flag
// under L and broadcasts is the timed wait; on the event core it runs on
// the dispatcher.
func TestCondBroadcastFromTimer(t *testing.T) {
	bothCores(t, func(t *testing.T, clock *Clock) {
		var mu sync.Mutex
		c := NewCond(clock, &mu)
		expired := false
		start := clock.Now()
		clock.AfterFunc(time.Second, func() {
			mu.Lock()
			expired = true
			mu.Unlock()
			c.Broadcast()
		})
		done := make(chan struct{})
		go func() {
			mu.Lock()
			for !expired {
				c.Wait()
			}
			mu.Unlock()
			close(done)
		}()
		within(t, done, "timer Broadcast")
		if waited := clock.Now() - start; waited < time.Second {
			t.Fatalf("woke after %v of virtual time, want the timer's 1s", waited)
		}
	})
}

// TestCondWaitReleasesL: while one goroutine waits, another can take L,
// change the condition and broadcast.
func TestCondWaitReleasesL(t *testing.T) {
	bothCores(t, func(t *testing.T, clock *Clock) {
		var mu sync.Mutex
		c := NewCond(clock, &mu)
		ready := false
		holding, done := make(chan struct{}), make(chan struct{})
		go func() {
			mu.Lock()
			close(holding)
			for !ready {
				c.Wait()
			}
			mu.Unlock()
			close(done)
		}()
		<-holding
		locked := make(chan struct{})
		go func() {
			mu.Lock() // only once Wait has let go of it
			ready = true
			mu.Unlock()
			c.Broadcast()
			close(locked)
		}()
		within(t, locked, "taking L from a waiter")
		within(t, done, "Broadcast after taking L")
	})
}

// TestGoFromDispatcherRunsBeforeTimeMoves: a goroutine started through
// Clock.Go from a dispatcher callback runs to its first park before the
// dispatcher fires anything later. A plain go there would let the next
// batch (the timer at 1.5s) fire first: scheduling from a callback
// elides the settle.
func TestGoFromDispatcherRunsBeforeTimeMoves(t *testing.T) {
	onOneP(t) // unpinned on 2 P under -race, time passed the running goroutine in 26 of 100 runs
	clock := eventClock(t)
	var mu sync.Mutex
	var started, woke time.Duration
	done := make(chan struct{})
	clock.AfterFunc(time.Second, func() {
		clock.Go(func() {
			mu.Lock()
			started = clock.Now()
			mu.Unlock()
			clock.Sleep(time.Second)
			mu.Lock()
			woke = clock.Now()
			mu.Unlock()
			close(done)
		})
	})
	clock.AfterFunc(1500*time.Millisecond, func() {})
	within(t, done, "Clock.Go")
	mu.Lock()
	defer mu.Unlock()
	if started != time.Second || woke != 2*time.Second {
		t.Fatalf("goroutine started at %v and woke at %v, want 1s and 2s", started, woke)
	}
}
