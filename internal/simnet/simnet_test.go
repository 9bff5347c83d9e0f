package simnet

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// fastClock returns a heavily accelerated clock so tests complete quickly.
func fastClock() *Clock { return NewClock(0.001) }

func newTestNet(t *testing.T, delay time.Duration) *Network {
	t.Helper()
	return NewNetwork(fastClock(), delay)
}

func TestDialAndEcho(t *testing.T) {
	n := newTestNet(t, 5*time.Millisecond)
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

	msg := []byte("hello across the emulated wire")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: got %q want %q", got, msg)
	}
}

func TestDialUnknownHost(t *testing.T) {
	n := newTestNet(t, 0)
	a := n.AddHost("alice", 0)
	if _, err := a.Dial("nonesuch:80"); err == nil {
		t.Fatal("Dial to unknown host succeeded")
	}
}

func TestDialClosedPort(t *testing.T) {
	n := newTestNet(t, 0)
	a := n.AddHost("alice", 0)
	n.AddHost("bob", 0)
	if _, err := a.Dial("bob:80"); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestDialBadAddress(t *testing.T) {
	n := newTestNet(t, 0)
	a := n.AddHost("alice", 0)
	for _, target := range []string{"", "bob", "bob:x", ":"} {
		if _, err := a.Dial(target); err == nil {
			t.Errorf("Dial(%q) succeeded, want error", target)
		}
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	n := newTestNet(t, 0)
	a := n.AddHost("alice", 0)
	b := n.AddHost("bob", 0)
	l, _ := b.Listen(80)
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		_, err = c.Read(make([]byte, 1))
		done <- err
	}()
	c, err := a.Dial("bob:80")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("reader got %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader not unblocked by peer close")
	}
}

func TestEOFAfterDrain(t *testing.T) {
	n := newTestNet(t, 0)
	a := n.AddHost("alice", 0)
	b := n.AddHost("bob", 0)
	l, _ := b.Listen(80)
	defer l.Close()

	accepted := make(chan io.ReadCloser, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	c, err := a.Dial("bob:80")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	payload := []byte("in-flight data must arrive before EOF")
	c.Write(payload)
	c.Close()

	sv := <-accepted
	got, err := io.ReadAll(sv)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q want %q", got, payload)
	}
}

func TestReadDeadline(t *testing.T) {
	n := newTestNet(t, 0)
	a := n.AddHost("alice", 0)
	b := n.AddHost("bob", 0)
	l, _ := b.Listen(80)
	defer l.Close()
	go l.Accept()
	c, err := a.Dial("bob:80")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, err = c.Read(make([]byte, 1))
	nerr, ok := err.(interface{ Timeout() bool })
	if !ok || !nerr.Timeout() {
		t.Fatalf("got %v, want timeout error", err)
	}
}

func TestBandwidthSharing(t *testing.T) {
	// Two clients downloading from one rate-limited server should each see
	// roughly half the server's uplink.
	clock := NewClock(0.01)
	n := NewNetwork(clock, time.Millisecond)
	server := n.AddHost("server", 100*1024) // 100 KiB per virtual second
	c1 := n.AddHost("c1", 0)
	c2 := n.AddHost("c2", 0)

	l, _ := server.Listen(80)
	defer l.Close()
	const fileSize = 500 * 1024 // large relative to the 64 KiB burst
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c io.WriteCloser) {
				defer c.Close()
				c.Write(make([]byte, fileSize))
			}(c)
		}
	}()

	start := clock.Now()
	var wg sync.WaitGroup
	times := make([]time.Duration, 2)
	for i, h := range []*Host{c1, c2} {
		wg.Add(1)
		go func(i int, h *Host) {
			defer wg.Done()
			c, err := h.Dial("server:80")
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			io.Copy(io.Discard, c)
			times[i] = clock.Now() - start
		}(i, h)
	}
	wg.Wait()

	// Combined 1000 KiB over a 100 KiB/s link: the last finisher cannot
	// beat ~9.4s (total bytes minus the burst, at the shared rate), and
	// fair sharing keeps the early finisher within ~2.5x of it.
	slow, fast := times[0], times[1]
	if fast > slow {
		slow, fast = fast, slow
	}
	if slow < 8*time.Second || slow > 16*time.Second {
		t.Errorf("slowest client finished at %v, want ≈10s (shared link)", slow)
	}
	if fast < slow/3 {
		t.Errorf("fast client at %v vs slow %v: sharing grossly unfair", fast, slow)
	}
}

func TestPropagationDelay(t *testing.T) {
	clock := NewClock(0.01)
	n := NewNetwork(clock, 0)
	a := n.AddHost("a", 0)
	b := n.AddHost("b", 0)
	n.SetDelay("a", "b", 100*time.Millisecond)

	l, _ := b.Listen(80)
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Write([]byte{1})
		c.Close()
	}()

	start := clock.Now()
	c, err := a.Dial("b:80") // 2x100ms handshake
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	io.ReadAll(c) // +100ms one-way for the byte
	elapsed := clock.Now() - start
	if elapsed < 300*time.Millisecond {
		t.Fatalf("elapsed %v, want ≥300ms (2 RTT-halves + 1 one-way)", elapsed)
	}
}

func TestDelaySymmetricLookup(t *testing.T) {
	n := newTestNet(t, 7*time.Millisecond)
	n.AddHost("x", 0)
	n.AddHost("y", 0)
	n.SetDelay("y", "x", 42*time.Millisecond)
	if got := n.Delay("x", "y"); got != 42*time.Millisecond {
		t.Fatalf("Delay(x,y) = %v, want 42ms", got)
	}
	if got := n.Delay("x", "x"); got != 0 {
		t.Fatalf("loopback delay = %v, want 0", got)
	}
	if got := n.Delay("x", "z"); got != 7*time.Millisecond {
		t.Fatalf("default delay = %v, want 7ms", got)
	}
}

func TestTokenBucketNeverOversubscribes(t *testing.T) {
	clock := NewClock(0.001)
	const rate = 1000.0 // bytes per vsec
	tb := NewTokenBucket(clock, rate, 1000)

	start := clock.Now()
	total := 0
	for i := 0; i < 20; i++ {
		tb.Take(500)
		total += 500
	}
	elapsed := clock.Now() - start
	// Invariant: delivered ≤ rate*elapsed + burst.
	maxAllowed := rate*elapsed.Seconds() + 1000
	if float64(total) > maxAllowed+1 {
		t.Fatalf("delivered %d bytes in %v; bucket allows at most %.0f",
			total, elapsed, maxAllowed)
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	clock := fastClock()
	tb := NewTokenBucket(clock, 0, 0)
	done := make(chan struct{})
	go func() {
		tb.Take(1 << 30)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("unlimited bucket blocked")
	}
}

// TestTokenBucketSubNanosecondDeficit: a deficit that refills in less
// than a nanosecond used to compute a zero wait, and Take retried without
// sleeping while the event clock, waiting for it to park, stood still.
// TestQueueIntrospection hung on exactly this in 2 of 150 runs on 2 P.
func TestTokenBucketSubNanosecondDeficit(t *testing.T) {
	clock := eventClock(t)
	tb := NewTokenBucket(clock, 1024, 1000)
	tb.tokens = 1000 - 1e-9
	done := make(chan struct{})
	go func() {
		tb.Take(1000)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Take spins on a deficit below one nanosecond of refill")
	}
}

func TestListenerDoublePort(t *testing.T) {
	n := newTestNet(t, 0)
	h := n.AddHost("h", 0)
	if _, err := h.Listen(80); err != nil {
		t.Fatalf("first Listen: %v", err)
	}
	if _, err := h.Listen(80); err == nil {
		t.Fatal("second Listen on same port succeeded")
	}
}

func TestListenerCloseFreesPort(t *testing.T) {
	n := newTestNet(t, 0)
	h := n.AddHost("h", 0)
	l, _ := h.Listen(80)
	l.Close()
	if _, err := h.Listen(80); err != nil {
		t.Fatalf("Listen after Close: %v", err)
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	n := newTestNet(t, 0)
	n.AddHost("dup", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddHost did not panic")
		}
	}()
	n.AddHost("dup", 0)
}

func TestSplitHostPort(t *testing.T) {
	cases := []struct {
		in   string
		host string
		port int
		ok   bool
	}{
		{"a:80", "a", 80, true},
		{"relay-3:9001", "relay-3", 9001, true},
		{"a:0", "a", 0, true},
		{"a:065535", "a", 65535, true},
		{"noport", "", 0, false},
		{"bad:port", "", 0, false},
		// Dial targets come from peers: the port is digits and nothing else.
		{"a:", "", 0, false},
		{"a:80abc", "", 0, false},
		{"a: 80", "", 0, false},
		{"a:+80", "", 0, false},
		{"a:-80", "", 0, false},
		{"a:80 ", "", 0, false},
		{"a:65536", "", 0, false},
		{"a:99999999999999999999", "", 0, false},
	}
	for _, c := range cases {
		h, p, err := splitHostPort(c.in)
		if c.ok != (err == nil) {
			t.Errorf("splitHostPort(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (h != c.host || p != c.port) {
			t.Errorf("splitHostPort(%q) = %q,%d want %q,%d", c.in, h, p, c.host, c.port)
		}
	}
}

// Property: any byte stream written in arbitrary chunks arrives intact and
// in order.
func TestStreamIntegrityProperty(t *testing.T) {
	n := newTestNet(t, time.Millisecond)
	a := n.AddHost("pa", 0)
	b := n.AddHost("pb", 0)
	l, _ := b.Listen(80)
	defer l.Close()

	received := make(chan []byte, 1)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c io.ReadCloser) {
				data, _ := io.ReadAll(c)
				received <- data
			}(c)
		}
	}()

	check := func(payload []byte) bool {
		c, err := a.Dial("pb:80")
		if err != nil {
			return false
		}
		want := append([]byte(nil), payload...)
		rest := payload
		for len(rest) > 0 {
			n := 1 + len(rest)/3
			if n > len(rest) {
				n = len(rest)
			}
			if _, err := c.Write(rest[:n]); err != nil {
				return false
			}
			rest = rest[n:]
		}
		c.Close()
		got := <-received
		return bytes.Equal(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonicAndScaled(t *testing.T) {
	c := NewClock(0.01)
	t0 := c.Now()
	c.Sleep(50 * time.Millisecond) // 0.5ms real
	t1 := c.Now()
	if t1 <= t0 {
		t.Fatal("clock not monotonic")
	}
	if t1-t0 < 50*time.Millisecond {
		t.Fatalf("slept %v virtual, want ≥50ms", t1-t0)
	}
}

func TestClockBadScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}
