package torclient

import (
	"runtime"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/simnet"
)

// TestControlWaitsLeaveNoTimers builds and closes 1,000 circuits, each
// with one stream, and requires every control-wait deadline to have been
// disarmed and the goroutine count to be where it was: every EXTENDED
// and CONNECTED wait arms a CtrlTimeout deadline (ten virtual minutes)
// and must stop it on return. With Clock.After the scaled clock stranded
// a timer and its channel per wait, ~800 B per circuit, until the
// deadline passed; the event core hid it, because an idle dispatcher
// jumps straight to the deadline and fires the timers, and runs here as
// the guard that it stays that way.
func TestControlWaitsLeaveNoTimers(t *testing.T) {
	cores := []struct {
		name  string
		clock func(t *testing.T) *simnet.Clock
	}{
		// 0.05: ten virtual minutes are 30 wall seconds, far beyond the run.
		{"scaled", func(*testing.T) *simnet.Clock { return simnet.NewClock(0.05) }},
		{"event", func(t *testing.T) *simnet.Clock {
			// One P: the event core's settle is unsound on 2 P
			// (benchmark/README.md, "Recorded limits"), and a build that
			// times out is a different test.
			prev := runtime.GOMAXPROCS(1)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			c := simnet.NewEventClock()
			t.Cleanup(c.Stop)
			return c
		}},
	}
	for _, core := range cores {
		t.Run(core.name, func(t *testing.T) {
			tn := buildTestNetOn(t, simnet.NewNetwork(core.clock(t), time.Microsecond), 3)
			tn.startEcho(t, "web", 80)
			client := New(tn.net.AddHost("client", 0), tn.cons, 1)

			cycle := func() {
				path, err := client.PickPath("web", 80)
				if err != nil {
					t.Fatal(err)
				}
				circ, err := client.BuildCircuit(path)
				if err != nil {
					t.Fatal(err)
				}
				s, err := circ.OpenStream("web:80")
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				circ.Close()
			}
			// goroutines waits out teardown (DESTROY, END, the echo server's
			// hang-up trail the last Close by a few deliveries): the count
			// once it has held still for 20 polls, or after 5 s.
			goroutines := func() int {
				n, still := runtime.NumGoroutine(), 0
				for deadline := time.Now().Add(5 * time.Second); still < 20 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
					if m := runtime.NumGoroutine(); m != n {
						n, still = m, 0
					} else {
						still++
					}
				}
				return n
			}
			for i := 0; i < 50; i++ {
				cycle()
			}
			armed0, g0 := ctrlDeadlinesArmed.Load(), goroutines()
			const circuits = 1000
			for i := 0; i < circuits; i++ {
				cycle()
			}
			// Every wait's stop has run by the time BuildCircuit and
			// OpenStream returned, so this needs no settling.
			if armed := ctrlDeadlinesArmed.Load(); armed != armed0 {
				t.Errorf("%d control deadlines still armed after %d circuits+streams, want %d", armed, circuits, armed0)
			}
			if g1 := goroutines(); g1 > g0+2 {
				t.Errorf("goroutines grew %d -> %d over %d circuits", g0, g1, circuits)
			}
		})
	}
}
