package torclient

import (
	"runtime"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/simnet"
)

// TestControlWaitsLeaveNoTimers builds and closes 1,000 circuits, each
// with one stream, and requires the heap and the goroutine count to be
// where they were: every EXTENDED and CONNECTED wait arms a CtrlTimeout
// deadline (ten virtual minutes) and must disarm it on return. With
// Clock.After the scaled clock stranded ~800 B per circuit until the
// deadline passed (this test read +814 B/circuit); the event core hid it,
// because an idle dispatcher jumps straight to the deadline and fires
// the timers, and runs here as the guard that it stays that way.
func TestControlWaitsLeaveNoTimers(t *testing.T) {
	cores := []struct {
		name  string
		clock func(t *testing.T) *simnet.Clock
	}{
		// 0.05: ten virtual minutes are 30 wall seconds, far beyond the run.
		{"scaled", func(*testing.T) *simnet.Clock { return simnet.NewClock(0.05) }},
		{"event", func(t *testing.T) *simnet.Clock {
			// One P: see internal/simnet eventClock.
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
			settled := func() (heap uint64, goroutines int) {
				// Teardown (DESTROY, END, the echo server's hang-up) trails
				// the last Close by a few deliveries.
				time.Sleep(50 * time.Millisecond)
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc, runtime.NumGoroutine()
			}
			for i := 0; i < 50; i++ {
				cycle()
			}
			heap0, g0 := settled()
			const circuits = 1000
			for i := 0; i < circuits; i++ {
				cycle()
			}
			heap1, g1 := settled()
			perCircuit := (float64(heap1) - float64(heap0)) / circuits
			t.Logf("heap %+.0f B/circuit, goroutines %d -> %d", perCircuit, g0, g1)
			if perCircuit > 128 {
				t.Errorf("heap grew %.0f B per circuit+stream, want flat", perCircuit)
			}
			if g1 > g0+2 {
				t.Errorf("goroutines grew %d -> %d over %d circuits", g0, g1, circuits)
			}
		})
	}
}
