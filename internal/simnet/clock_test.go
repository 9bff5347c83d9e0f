package simnet

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAfterFuncZeroWait: a zero wait and a positive one shorter than a
// wall nanosecond each run their callback exactly once. On the scaled
// clock neither goes through a runtime timer, and a wait of one wall
// nanosecond does.
func TestAfterFuncZeroWait(t *testing.T) {
	bothCores(t, func(t *testing.T, clock *Clock) {
		for _, d := range []time.Duration{-time.Second, 0, time.Microsecond} {
			var runs atomic.Int32
			done := make(chan struct{})
			tm := clock.AfterFunc(d, func() {
				if runs.Add(1) == 1 {
					close(done)
				}
			})
			if !clock.EventDriven() && tm.stopFn != nil {
				t.Fatalf("AfterFunc(%v) armed a runtime timer", d)
			}
			within(t, done, "zero wait")
			clock.Sleep(time.Second)
			if n := runs.Load(); n != 1 {
				t.Fatalf("AfterFunc(%v): callback ran %d times, want 1", d, n)
			}
		}
		oneNs := time.Duration(1 / clock.Scale())
		if tm := clock.AfterFunc(oneNs, func() {}); tm.stopFn == nil {
			t.Fatalf("AfterFunc(%v), one wall nanosecond, armed no timer", oneNs)
		}
	})
}

// TestAfterFuncZeroWaitStop: a Stop racing a zero wait's callback
// reports true exactly when the callback never runs, and a Stop after it
// ran reports false. Every other round yields before the Stop, so that
// the callback's goroutine usually gets there first.
func TestAfterFuncZeroWaitStop(t *testing.T) {
	bothCores(t, func(t *testing.T, clock *Clock) {
		stopped := 0
		for i := 0; i < 200; i++ {
			var ran atomic.Bool
			done := make(chan struct{})
			tm := clock.AfterFunc(0, func() {
				ran.Store(true)
				close(done)
			})
			if i%2 == 1 {
				runtime.Gosched()
			}
			if tm.Stop() {
				stopped++
				clock.Sleep(time.Second)
				if ran.Load() {
					t.Fatal("Stop reported true, yet the callback ran")
				}
			} else {
				within(t, done, "unstopped zero wait")
			}
			if tm.Stop() {
				t.Fatal("a second Stop reported true")
			}
		}
		t.Logf("%d of 200 zero waits stopped before they ran", stopped)

		done := make(chan struct{})
		tm := clock.AfterFunc(0, func() { close(done) })
		within(t, done, "zero wait")
		if tm.Stop() {
			t.Fatal("Stop after the callback ran reported true")
		}
	})
}

// TestAfterFuncTimedStop: a positive wait still goes through a timer
// that a Stop before it fires cancels. The timer is armed and stopped in
// a zero-wait callback: on the event core that is the dispatcher, which
// cannot advance past the 1s wait between the two calls, as it can past
// the test goroutine's on two Ps.
func TestAfterFuncTimedStop(t *testing.T) {
	bothCores(t, func(t *testing.T, clock *Clock) {
		var ran atomic.Bool
		var tm *VTimer
		var stopped bool
		armed := make(chan struct{})
		clock.AfterFunc(0, func() {
			tm = clock.AfterFunc(time.Second, func() { ran.Store(true) })
			stopped = tm.Stop()
			close(armed)
		})
		within(t, armed, "arming callback")
		if !stopped {
			t.Fatal("Stop before a 1s wait fired reported false")
		}
		clock.Sleep(2 * time.Second)
		if ran.Load() {
			t.Fatal("a stopped 1s wait ran its callback")
		}
		if tm.Stop() {
			t.Fatal("a second Stop reported true")
		}
	})
}

// TestConnZeroWaitFIFO: over a 1µs link, every delivery on the scaled
// clock is a zero wait. 10 000 chunks still arrive in the order written,
// followed by exactly one EOF.
func TestConnZeroWaitFIFO(t *testing.T) {
	bothCores(t, func(t *testing.T, clock *Clock) {
		const chunks = 10000
		n := NewNetwork(clock, time.Microsecond)
		a := n.AddHost("a", 0)
		l, err := n.AddHost("b", 0).Listen(7)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		c, err := a.Dial("b:7")
		if err != nil {
			t.Fatal(err)
		}
		far, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer far.Close()

		var mu sync.Mutex
		var got []byte
		eofs := 0
		done := make(chan struct{})
		far.(LightConn).SetDeliverFunc(func(data []byte, eof bool) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, data...)
			if eof {
				if eofs++; eofs == 1 {
					close(done)
				}
			}
		})
		lc := c.(LightConn)
		var buf [4]byte
		for i := uint32(0); i < chunks; i++ {
			binary.BigEndian.PutUint32(buf[:], i)
			if err := lc.WriteAsync(buf[:]); err != nil {
				t.Fatalf("WriteAsync %d: %v", i, err)
			}
		}
		c.Close()
		within(t, done, "EOF after 10 000 chunks")
		clock.Sleep(time.Second)

		mu.Lock()
		defer mu.Unlock()
		if eofs != 1 {
			t.Fatalf("%d EOFs, want 1", eofs)
		}
		if len(got) != 4*chunks {
			t.Fatalf("delivered %d bytes, want %d", len(got), 4*chunks)
		}
		for i := uint32(0); i < chunks; i++ {
			if v := binary.BigEndian.Uint32(got[4*i:]); v != i {
				t.Fatalf("chunk %d carries %d: out of order", i, v)
			}
		}
	})
}
