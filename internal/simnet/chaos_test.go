package simnet

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// chaosNet builds a two-host network with an echo listener on b:80.
func chaosNet(t *testing.T, seed int64) (*Network, *Chaos, *Host, *Host) {
	t.Helper()
	n := NewNetwork(NewClock(0.001), 2*time.Millisecond)
	ch := n.EnableChaos(seed)
	a := n.AddHost("a", 0)
	b := n.AddHost("b", 0)
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
	return n, ch, a, b
}

func TestChaosDialLossDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		n := NewNetwork(NewClock(0.001), time.Millisecond)
		ch := n.EnableChaos(seed)
		ch.SetDefaultFaults(Faults{DialFailProb: 0.3})
		a := n.AddHost("a", 0)
		b := n.AddHost("b", 0)
		ln, err := b.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
		var out []bool
		for i := 0; i < 40; i++ {
			c, err := a.Dial("b:80")
			out = append(out, err == nil)
			if c != nil {
				c.Close()
			}
		}
		return out
	}
	p1, p2 := pattern(7), pattern(7)
	fails := 0
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed, different dial outcome at %d", i)
		}
		if !p1[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(p1) {
		t.Fatalf("expected a mixed dial pattern at p=0.3, got %d/%d failures", fails, len(p1))
	}
}

func TestChaosPartitionBlocksDialAndStallsDelivery(t *testing.T) {
	_, ch, a, _ := chaosNet(t, 1)

	// An established connection first.
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("one"))
	buf := make([]byte, 16)
	if _, err := io.ReadAtLeast(c, buf, 3); err != nil {
		t.Fatal(err)
	}

	ch.Partition("a", "b")
	if _, err := a.Dial("b:80"); err == nil {
		t.Fatal("dial across partition succeeded")
	}

	// Data written during the partition must not arrive until it heals.
	c.Write([]byte("two"))
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("read %d bytes across a partition", n)
	}
	c.SetReadDeadline(time.Time{})

	ch.Heal("a", "b")
	if _, err := io.ReadAtLeast(c, buf, 3); err != nil {
		t.Fatalf("delivery after heal: %v", err)
	}
	if _, err := a.Dial("b:80"); err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
}

func TestChaosCrashSeversAndRestartRecovers(t *testing.T) {
	_, ch, a, _ := chaosNet(t, 2)

	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("hi"))
	buf := make([]byte, 8)
	if _, err := io.ReadAtLeast(c, buf, 2); err != nil {
		t.Fatal(err)
	}

	ch.CrashHost("b")
	// The live connection is severed abruptly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Read(buf); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("read kept succeeding after crash")
		}
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write to severed conn succeeded")
	}
	if _, err := a.Dial("b:80"); err == nil {
		t.Fatal("dial to crashed host succeeded")
	}
	if !ch.HostDown("b") {
		t.Fatal("HostDown(b) = false after crash")
	}

	ch.RestartHost("b")
	c2, err := a.Dial("b:80")
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	defer c2.Close()
	c2.Write([]byte("back"))
	if _, err := io.ReadAtLeast(c2, buf, 4); err != nil {
		t.Fatalf("echo after restart: %v", err)
	}
}

// TestChaosSeverReachesDeliverCallbacks: a conn read by a deliver
// callback has no Read to fail, so when a crash or a cut severs it, its
// callback must be handed EOF — otherwise its owner waits forever on a
// link that is gone. Both severing paths, on the event clock.
func TestChaosSeverReachesDeliverCallbacks(t *testing.T) {
	for _, sever := range []struct {
		name string
		do   func(ch *Chaos, c net.Conn)
	}{
		{"crash", func(ch *Chaos, _ net.Conn) { ch.CrashHost("b") }},
		{"break", func(ch *Chaos, c net.Conn) {
			ch.SetDefaultFaults(Faults{BreakProb: 1})
			c.Write([]byte("doomed"))
		}},
	} {
		t.Run(sever.name, func(t *testing.T) {
			clock := NewEventClock()
			t.Cleanup(clock.Stop)
			n := NewNetwork(clock, time.Millisecond)
			ch := n.EnableChaos(5)
			a, b := n.AddHost("a", 0), n.AddHost("b", 0)
			ln, err := b.Listen(80)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			c, err := a.Dial("b:80")
			if err != nil {
				t.Fatal(err)
			}
			far, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var eofs [2]int
			for i, lc := range []net.Conn{c, far} {
				lc.(LightConn).SetDeliverFunc(func(_ []byte, eof bool) {
					if eof {
						mu.Lock()
						eofs[i]++
						mu.Unlock()
					}
				})
			}
			sever.do(ch, c)
			clock.Sleep(time.Second)
			mu.Lock()
			defer mu.Unlock()
			// Exactly one each: the peer's EOF chunk can race the sever,
			// and a callback must not be handed both.
			if eofs != [2]int{1, 1} {
				t.Fatalf("EOFs seen by the dialer's and the acceptor's deliver callbacks: %v, want one each", eofs)
			}
		})
	}
}

func TestChaosLossDelaysDelivery(t *testing.T) {
	n, ch, a, _ := chaosNet(t, 3)
	clock := n.Clock()
	// Every chunk "loses a packet": delivery pays the retransmission
	// delay on top of propagation.
	ch.SetDefaultFaults(Faults{LossProb: 1, RetransDelay: 500 * time.Millisecond})

	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := clock.Now()
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	rtt := clock.Now() - start
	// Two traversals, each ≥ 500ms retransmission + 2ms propagation.
	if rtt < time.Second {
		t.Fatalf("virtual RTT %v under full loss, want ≥ 1s", rtt)
	}
}

func TestChaosBreakSeversMidStream(t *testing.T) {
	_, ch, a, _ := chaosNet(t, 4)
	ch.SetDefaultFaults(Faults{BreakProb: 1})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("doomed")); err == nil {
		t.Fatal("write survived BreakProb=1")
	}
}

func TestChaosDisabledIsInert(t *testing.T) {
	n := NewNetwork(NewClock(0.001), time.Millisecond)
	if n.Chaos() != nil {
		t.Fatal("chaos enabled by default")
	}
	a := n.AddHost("a", 0)
	b := n.AddHost("b", 0)
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
	}()
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("ok"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("plain network broken: %q %v", buf, err)
	}
}
