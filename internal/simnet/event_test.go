package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// onOneP runs the rest of the test on one P. The event core's settle
// takes three quiet Gosched rounds for quiescence, which is sound only
// when a woken goroutine cannot still be running on another P
// (benchmark/README.md, "Recorded limits"); on 2 P virtual time can run
// ahead of such a goroutine. Only tests measured flaky for that reason
// call this, each with its rate; the rest, the Stop-versus-dispatcher
// races in sched_test.go above all, need their second P.
func onOneP(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// eventClock returns an event-driven clock and registers its shutdown.
func eventClock(t *testing.T) *Clock {
	t.Helper()
	c := NewEventClock()
	t.Cleanup(c.Stop)
	return c
}

func TestWheelOrdering(t *testing.T) {
	w := newWheel(0)
	// Deltas spanning the near window, the far heap, and ties within one
	// jiffy. All inserted out of order.
	deltas := []int64{
		0, 1, 500, 1 << 19, // same and nearby jiffies
		1 << 21, 50 << 20, // inside the near window
		300 << 20, 5000 << 20, // far heap
		int64(time.Hour), int64(30 * time.Minute),
		300<<20 + 1, 300<<20 + 1, // exact tie broken by seq
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })
	var seq uint64
	for _, d := range deltas {
		seq++
		w.insert(&event{due: d, seq: seq})
	}
	var fired []*event
	for {
		batch := w.popNext()
		if batch == nil {
			break
		}
		fired = append(fired, batch...)
	}
	if len(fired) != len(deltas) {
		t.Fatalf("fired %d events, inserted %d", len(fired), len(deltas))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.due > b.due || (a.due == b.due && a.seq > b.seq) {
			t.Fatalf("order violation at %d: (%d,%d) before (%d,%d)", i, a.due, a.seq, b.due, b.seq)
		}
	}
}

func TestWheelInsertDuringDispatch(t *testing.T) {
	// An event scheduled for "now" while the cursor sits on the current
	// jiffy must be found by the next pop, not skipped.
	w := newWheel(0)
	w.insert(&event{due: 10 << 20, seq: 1})
	if batch := w.popNext(); len(batch) != 1 {
		t.Fatalf("first pop: %d events", len(batch))
	}
	w.insert(&event{due: 10 << 20, seq: 2}) // same jiffy as the cursor
	batch := w.popNext()
	if len(batch) != 1 || batch[0].seq != 2 {
		t.Fatalf("same-jiffy insert lost: %+v", batch)
	}
}

func TestEventClockVirtualTime(t *testing.T) {
	clock := eventClock(t)
	start := time.Now()
	clock.Sleep(10 * time.Minute) // ten virtual minutes
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("10 virtual minutes took %v of wall time", wall)
	}
	if now := clock.Now(); now < 10*time.Minute {
		t.Fatalf("virtual now %v after sleeping 10m", now)
	}
}

func TestEventClockAfterFuncOrderAndStop(t *testing.T) {
	onOneP(t) // unpinned on 2 P under -race with a second test binary running: fired [3 1] in 3 of 34 package runs, parent 1 of 32
	clock := eventClock(t)
	var mu sync.Mutex
	var order []int
	record := func(i int) func() {
		return func() { mu.Lock(); order = append(order, i); mu.Unlock() }
	}
	clock.AfterFunc(3*time.Second, record(3))
	clock.AfterFunc(1*time.Second, record(1))
	tm := clock.AfterFunc(2*time.Second, record(2))
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	clock.Sleep(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("fired %v, want [1 3]", order)
	}
}

func TestEventCoreDialEcho(t *testing.T) {
	clock := eventClock(t)
	n := NewNetwork(clock, 25*time.Millisecond)
	a := n.AddHost("alice", 0)
	b := n.AddHost("bob", 0)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := a.Dial("bob:80")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	msg := []byte("hello through the event scheduler")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: got %q", got)
	}
	if now := clock.Now(); now < 100*time.Millisecond {
		// Two dial RTT hops plus two one-way deliveries at 25ms each.
		t.Fatalf("virtual time %v did not account for propagation", now)
	}
}

func TestEventCorePropagationDelayExact(t *testing.T) {
	// On the event core delivery timing is exact arithmetic, not
	// approximate wall scheduling.
	clock := eventClock(t)
	n := NewNetwork(clock, 40*time.Millisecond)
	a := n.AddHost("a", 0)
	b := n.AddHost("b", 0)
	l, _ := b.Listen(9)
	defer l.Close()
	got := make(chan time.Duration, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		c.Read(buf)
		got <- clock.Now()
	}()
	c, err := a.Dial("b:9")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	sent := clock.Now()
	c.Write([]byte("ping"))
	at := <-got
	if at-sent != 40*time.Millisecond {
		t.Fatalf("one-way delivery took %v virtual, want exactly 40ms", at-sent)
	}
}

// runTaggedWorkload drives a fixed, single-writer workload and returns
// the order in which payloads arrived across two links with different
// propagation delays. Both clock cores must produce the same order.
func runTaggedWorkload(t *testing.T, clock *Clock) []string {
	t.Helper()
	n := NewNetwork(clock, 10*time.Millisecond)
	src := n.AddHost("src", 0)
	fast := n.AddHost("fast", 0)
	slow := n.AddHost("slow", 0)
	n.SetDelay("src", "fast", 10*time.Millisecond)
	n.SetDelay("src", "slow", 35*time.Millisecond)

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	serve := func(h *Host, port int) net.Listener {
		l, err := h.Listen(port)
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			buf := make([]byte, 4)
			for {
				if _, err := io.ReadFull(c, buf); err != nil {
					return
				}
				mu.Lock()
				order = append(order, string(bytes.TrimRight(buf, " ")))
				mu.Unlock()
			}
		}()
		return l
	}
	lf := serve(fast, 1)
	defer lf.Close()
	ls := serve(slow, 1)
	defer ls.Close()

	cf, err := src.Dial("fast:1")
	if err != nil {
		t.Fatalf("Dial fast: %v", err)
	}
	cs, err := src.Dial("slow:1")
	if err != nil {
		t.Fatalf("Dial slow: %v", err)
	}
	// Single driver; every delivery is separated by ≥5ms of virtual time,
	// so the arrival order is unambiguous on both cores.
	for i := 0; i < 5; i++ {
		cf.Write([]byte(fmt.Sprintf("f%d  ", i)))
		cs.Write([]byte(fmt.Sprintf("s%d  ", i)))
		clock.Sleep(20 * time.Millisecond)
	}
	clock.Sleep(100 * time.Millisecond)
	cf.Close()
	cs.Close()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return append([]string(nil), order...)
}

func TestDifferentialDeliveryOrder(t *testing.T) {
	// The legacy core runs at true speed (scale 1.0) so wall jitter stays
	// far below the 5ms event separation.
	legacy := runTaggedWorkload(t, NewClock(1.0))
	onOneP(t) // unpinned on 2 P: the event order was off in 9 of 150 package runs (the parent failed this test in 3 of 10)
	ev := runTaggedWorkload(t, eventClock(t))
	if len(legacy) != 10 || len(ev) != 10 {
		t.Fatalf("lost deliveries: legacy=%d event=%d", len(legacy), len(ev))
	}
	for i := range legacy {
		if legacy[i] != ev[i] {
			t.Fatalf("delivery order diverges at %d:\nlegacy: %v\nevent:  %v", i, legacy, ev)
		}
	}
}

// deadlinePair builds a connected conn pair for deadline tests.
func deadlinePair(t *testing.T, clock *Clock, egressRate float64) (client, server net.Conn) {
	t.Helper()
	n := NewNetwork(clock, time.Millisecond)
	a := n.AddHost("a", egressRate)
	b := n.AddHost("b", 0)
	l, err := b.Listen(7)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := a.Dial("b:7")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	s := <-accepted
	l.Close()
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, os.ErrDeadlineExceeded) && errors.As(err, &ne) && ne.Timeout()
}

// testDeadlineSemantics is the satellite deadline matrix, run against
// both clock cores.
func testDeadlineSemantics(t *testing.T, mkClock func(t *testing.T) *Clock) {
	t.Run("read expiry mid-block", func(t *testing.T) {
		c, _ := deadlinePair(t, mkClock(t), 0)
		c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
		start := time.Now()
		_, err := c.Read(make([]byte, 1))
		if !isTimeout(err) {
			t.Fatalf("Read: %v, want deadline timeout", err)
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("deadline wait did not track the clock")
		}
	})
	t.Run("read deadline in the past", func(t *testing.T) {
		c, s := deadlinePair(t, mkClock(t), 0)
		s.Write([]byte("x")) // even buffered data does not rescue an expired deadline
		c.SetReadDeadline(time.Now().Add(-time.Second))
		if _, err := c.Read(make([]byte, 1)); !isTimeout(err) {
			t.Fatalf("Read: %v, want deadline timeout", err)
		}
	})
	t.Run("deadline cleared after partial read", func(t *testing.T) {
		clock := mkClock(t)
		c, s := deadlinePair(t, clock, 0)
		if _, err := s.Write([]byte("abc")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 3)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("partial read: %v", err)
		}
		c.SetReadDeadline(time.Time{}) // clear
		got := make(chan error, 1)
		go func() {
			_, err := c.Read(make([]byte, 1))
			got <- err
		}()
		go func() {
			clock.Sleep(50 * time.Millisecond)
			s.Write([]byte("y"))
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("read after cleared deadline: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cleared deadline still expired the read")
		}
	})
	t.Run("write expiry mid-block", func(t *testing.T) {
		// 1 KiB/s uplink: a 128 KiB write needs over a virtual minute, so
		// the 200ms write deadline strikes mid-acquisition.
		c, _ := deadlinePair(t, mkClock(t), 1024)
		c.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := c.Write(make([]byte, 128*1024))
		if !isTimeout(err) {
			t.Fatalf("Write: n=%d err=%v, want deadline timeout", n, err)
		}
		if n >= 128*1024 {
			t.Fatalf("short write expected, wrote %d", n)
		}
	})
	t.Run("write deadline in the past", func(t *testing.T) {
		c, _ := deadlinePair(t, mkClock(t), 1024)
		c.SetWriteDeadline(time.Now().Add(-time.Second))
		if _, err := c.Write(make([]byte, 128*1024)); !isTimeout(err) {
			t.Fatalf("Write: %v, want deadline timeout", err)
		}
	})
}

func TestDeadlineSemanticsLegacyCore(t *testing.T) {
	testDeadlineSemantics(t, func(t *testing.T) *Clock { return NewClock(0.01) })
}

func TestDeadlineSemanticsEventCore(t *testing.T) {
	testDeadlineSemantics(t, eventClock)
}

func TestEventCorePartitionStallAndHeal(t *testing.T) {
	clock := eventClock(t)
	n := NewNetwork(clock, time.Millisecond)
	chaos := n.EnableChaos(1)
	a := n.AddHost("a", 0)
	b := n.AddHost("b", 0)
	l, _ := b.Listen(7)
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := a.Dial("b:7")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	s := <-accepted
	defer s.Close()

	chaos.Partition("a", "b")
	if _, err := c.Write([]byte("held")); err != nil {
		t.Fatalf("Write during partition: %v", err)
	}
	// The chunk must stall, not arrive: a bounded read times out.
	s.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := s.Read(make([]byte, 4)); !isTimeout(err) {
		t.Fatalf("read during partition: %v, want timeout", err)
	}
	s.SetReadDeadline(time.Time{})
	chaos.Heal("a", "b")
	buf := make([]byte, 4)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if string(buf) != "held" {
		t.Fatalf("got %q after heal", buf)
	}
}

// runChaosWorkload drives a deterministic single-goroutine workload
// under chaos and returns the recorded event log.
func runChaosWorkload(t *testing.T) []string {
	t.Helper()
	clock := eventClock(t)
	n := NewNetwork(clock, 5*time.Millisecond)
	chaos := n.EnableChaos(42)
	chaos.EnableEventLog()
	chaos.SetDefaultFaults(Faults{LossProb: 0.3, JitterMax: 2 * time.Millisecond, DialFailProb: 0.1})
	a := n.AddHost("a", 0)
	b := n.AddHost("b", 0)
	l, _ := b.Listen(7)
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	var c net.Conn
	var err error
	for {
		c, err = a.Dial("b:7")
		if err == nil {
			break
		}
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		if _, err := c.Write([]byte("payload")); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
		clock.Sleep(3 * time.Millisecond)
	}
	chaos.Partition("a", "b")
	c.Write([]byte("stalled"))
	clock.Sleep(20 * time.Millisecond)
	chaos.Heal("a", "b")
	clock.Sleep(50 * time.Millisecond)
	chaos.CrashHost("b")
	chaos.RestartHost("b")
	return chaos.EventLog()
}

func TestChaosEventLogDeterministic(t *testing.T) {
	onOneP(t) // unpinned on 2 P: failed 26 of 150 package runs, parent 1 of 10
	first := runChaosWorkload(t)
	second := runChaosWorkload(t)
	if len(first) == 0 {
		t.Fatal("chaos workload produced an empty event log")
	}
	if len(first) != len(second) {
		t.Fatalf("log lengths differ: %d vs %d\nfirst: %v\nsecond: %v", len(first), len(second), first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("log diverges at %d: %q vs %q", i, first[i], second[i])
		}
	}
}

func TestLightConnAsyncRoundTrip(t *testing.T) {
	clock := eventClock(t)
	n := NewNetwork(clock, 2*time.Millisecond)
	a := n.AddHost("a", 1<<20)
	b := n.AddHost("b", 0)
	l, _ := b.Listen(7)
	defer l.Close()

	var mu sync.Mutex
	var got []byte
	sawEOF := false
	ready := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		lc := c.(LightConn)
		lc.SetDeliverFunc(func(data []byte, eof bool) {
			mu.Lock()
			got = append(got, data...)
			if eof {
				sawEOF = true
			}
			mu.Unlock()
		})
		close(ready)
	}()
	c, err := a.Dial("b:7")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	<-ready
	lc := c.(LightConn)
	want := bytes.Repeat([]byte("cell"), 1024)
	for i := 0; i < 4; i++ {
		if err := lc.WriteAsync(want[i*1024 : (i+1)*1024]); err != nil {
			t.Fatalf("WriteAsync: %v", err)
		}
	}
	c.Close()
	// Let the scheduler drain deliveries and the EOF marker.
	clock.Sleep(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, want %d (match=%v)", len(got), len(want), bytes.Equal(got, want))
	}
	if !sawEOF {
		t.Fatal("deliver callback never saw EOF")
	}
}

func TestEventCoreBandwidthPacing(t *testing.T) {
	// 100 KiB through a 100 KiB/s uplink must take ~1 virtual second on
	// the event core, with exact arithmetic.
	clock := eventClock(t)
	n := NewNetwork(clock, 0)
	a := n.AddHost("a", 100*1024)
	b := n.AddHost("b", 0)
	l, _ := b.Listen(7)
	defer l.Close()
	done := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
		close(done)
	}()
	c, err := a.Dial("b:7")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	start := clock.Now()
	if _, err := c.Write(make([]byte, 100*1024)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	took := clock.Now() - start
	// The burst allowance (64 KiB) is free; the remaining 36 KiB drains
	// at 100 KiB/s ≈ 360ms.
	if took < 200*time.Millisecond || took > 2*time.Second {
		t.Fatalf("100KiB at 100KiB/s took %v virtual", took)
	}
	c.Close()
	<-done
}
