package simnet

import (
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/obs"
)

// TestQueueIntrospection covers the backlog/open-conn surface consumed
// by the telemetry gauges: per-host live endpoint counts and egress
// token-bucket backlog, plus the registry gauges built on them.
func TestQueueIntrospection(t *testing.T) {
	onOneP(t) // unpinned on 2 P: failed 7 of 150 package runs ("backlog never became visible"), parent 2 of 10
	clock := eventClock(t)
	n := NewNetwork(clock, 1*time.Millisecond)
	reg := obs.NewRegistry()
	reg.SetClock(clock.Now)
	n.SetObs(reg)

	// 1 KB/s uplink so a 64 KB write visibly queues.
	src := n.AddHost("src", 1024)
	dst := n.AddHost("dst", 0)

	if got := src.OpenConns(); got != 0 {
		t.Fatalf("fresh host has %d open conns, want 0", got)
	}

	ln, err := dst.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 32*1024)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()

	c, err := src.Dial("dst:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := src.OpenConns(); got != 1 {
		t.Errorf("src open conns = %d, want 1", got)
	}
	if got := dst.OpenConns(); got != 1 {
		t.Errorf("dst open conns = %d, want 1", got)
	}
	if got := n.OpenConns(); got != 2 {
		t.Errorf("network open conns = %d, want 2", got)
	}

	// A write far beyond the burst must show up as backlog while the
	// token bucket paces it out.
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Write(make([]byte, 256*1024))
	}()
	// Clock-driven wait: virtual milliseconds, so this is instant on the
	// event core and cannot flake under load.
	for i := 0; src.EgressBacklog() == 0; i++ {
		if i > 10000 {
			t.Fatal("egress backlog never became visible")
		}
		clock.Sleep(time.Millisecond)
	}
	if got := n.EgressBacklog(); got == 0 {
		t.Error("network-wide backlog should mirror the host's")
	}

	// The registry gauges read through to the same introspection.
	snap := reg.Snapshot()
	if snap.Gauges["simnet.open_conns"] != 2 {
		t.Errorf("open_conns gauge = %d, want 2", snap.Gauges["simnet.open_conns"])
	}
	if snap.Gauges["simnet.hosts"] != 2 {
		t.Errorf("hosts gauge = %d, want 2", snap.Gauges["simnet.hosts"])
	}
	if snap.Counters["simnet.dials"] != 1 {
		t.Errorf("dials counter = %d, want 1", snap.Counters["simnet.dials"])
	}
	if snap.Counters["simnet.bytes_sent"] == 0 {
		t.Error("bytes_sent counter never moved")
	}

	// Unblock the writer quickly and confirm the throttle wait histogram
	// recorded the stall.
	src.SetEgressRate(0)
	<-done
	if reg.Histogram("simnet.egress_wait_ns", obs.LatencyBuckets).Count() == 0 {
		t.Error("egress wait histogram never observed a throttle")
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Both endpoints deregister: the remote side closes lazily, so only
	// require the local endpoint to disappear promptly.
	for i := 0; src.OpenConns() != 0 && i < 100; i++ {
		clock.Sleep(time.Millisecond)
	}
	if got := src.OpenConns(); got != 0 {
		t.Errorf("src open conns after close = %d, want 0", got)
	}
}
