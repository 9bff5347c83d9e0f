package torclient

import (
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/simnet"
)

func TestBadRelayExpiry(t *testing.T) {
	n := simnet.NewNetwork(simnet.NewClock(0.0002), time.Millisecond)
	c := New(n.AddHost("client", 0), &dirauth.Consensus{}, 1)
	c.MarkRelayBad("feedface")
	if !c.RelayBad("feedface") {
		t.Fatal("relay not bad right after marking")
	}
	c.Clock().Sleep(badRelayTTL + time.Minute)
	if c.RelayBad("feedface") {
		t.Fatal("bad-relay entry did not expire after its TTL")
	}
}

func TestFilterHealthyFallsBackWhenAllBad(t *testing.T) {
	tn := buildTestNet(t, 3)
	client := New(tn.net.AddHost("client", 0), tn.cons, 2)
	for _, d := range tn.cons.Relays {
		client.MarkRelayBad(d.Fingerprint())
	}
	// Re-mark one relay later: it becomes the freshest suspect, and the
	// least-suspect fallback must be the one dropping it.
	tn.net.Clock().Sleep(time.Minute)
	worst := tn.cons.Relays[1]
	client.MarkRelayBad(worst.Fingerprint())
	pool := client.FilterHealthy(tn.cons.Relays)
	if len(pool) != 2 {
		t.Fatalf("FilterHealthy with every relay bad returned %d of %d; want the least-suspect 2",
			len(pool), len(tn.cons.Relays))
	}
	for _, d := range pool {
		if d == worst {
			t.Fatal("least-suspect fallback kept the freshest suspect")
		}
	}
	// With one healthy relay the filter should narrow to it.
	client2 := New(tn.net.AddHost("client2", 0), tn.cons, 2)
	for _, d := range tn.cons.Relays[1:] {
		client2.MarkRelayBad(d.Fingerprint())
	}
	pool = client2.FilterHealthy(tn.cons.Relays)
	if len(pool) != 1 || pool[0] != tn.cons.Relays[0] {
		t.Fatalf("FilterHealthy kept %d relays, want exactly the healthy one", len(pool))
	}
}

func TestPickHealthyPathAvoidsBadRelays(t *testing.T) {
	tn := buildTestNet(t, 6)
	client := New(tn.net.AddHost("client", 0), tn.cons, 3)
	bad := tn.cons.Relays[0]
	client.MarkRelayBad(bad.Fingerprint())
	for i := 0; i < 50; i++ {
		path, err := client.PickHealthyPath("web", 80)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range path {
			if d.Fingerprint() == bad.Fingerprint() {
				t.Fatalf("iteration %d: path includes avoided relay %s", i, d.Nickname)
			}
		}
	}
	// All bad: avoidance must fall back to the full consensus, not fail.
	for _, d := range tn.cons.Relays {
		client.MarkRelayBad(d.Fingerprint())
	}
	if _, err := client.PickHealthyPath("web", 80); err != nil {
		t.Fatalf("PickHealthyPath with all relays bad: %v", err)
	}
}

// TestRelayCrashMidStreamHeals covers the self-healing loop end to end: a
// relay crash mid-stream surfaces as a prompt stream error (not a hang),
// the crashed relay lands on the avoid list, and a rebuilt circuit that
// excludes it completes a second fetch.
func TestRelayCrashMidStreamHeals(t *testing.T) {
	tn := buildTestNet(t, 7)
	tn.startEcho(t, "web", 80)
	client := New(tn.net.AddHost("client", 0), tn.cons, 5)

	conn, circ, err := client.DialResilient("web", 80, "web:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 16)
	if _, err := conn.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAtLeast(conn, buf, 5); err != nil {
		t.Fatalf("echo before crash: %v", err)
	}

	// Crash the middle relay while the stream is live.
	crashed := circ.Path()[1]
	tn.crash(tn.relays[relayIndex(t, crashed.Nickname)])

	// The stream must fail promptly — the guard relays a DESTROY as soon
	// as its downstream link drops. The deadline is a generous upper
	// bound; hitting it means the failure was a silent hang.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = conn.Read(buf)
	if err == nil {
		t.Fatal("read succeeded on a circuit through a crashed relay")
	}
	if to, ok := err.(interface{ Timeout() bool }); ok && to.Timeout() {
		t.Fatalf("stream hung after relay crash instead of erroring: %v", err)
	}
	if circ.Err() == nil {
		t.Fatal("circuit reports no failure cause after relay crash")
	}
	if !client.RelayBad(crashed.Fingerprint()) {
		t.Fatalf("crashed relay %s not on avoid list", crashed.Nickname)
	}

	// Rebuild and refetch. The new path must exclude the crashed relay
	// (7 relays, at most 3 suspects: avoidance never needs the fallback).
	conn2, circ2, err := client.DialResilient("web", 80, "web:80", 0)
	if err != nil {
		t.Fatalf("rebuild after crash: %v", err)
	}
	defer conn2.Close()
	defer circ2.Close()
	for _, d := range circ2.Path() {
		if d.Fingerprint() == crashed.Fingerprint() {
			t.Fatalf("rebuilt circuit reuses crashed relay %s", d.Nickname)
		}
	}
	if _, err := conn2.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAtLeast(conn2, buf, 6); err != nil {
		t.Fatalf("echo after heal: %v", err)
	}
}

// TestDialResilientRoutesAroundCrashes pre-crashes two of five relays and
// checks that resilient dialing converges on the surviving three.
func TestDialResilientRoutesAroundCrashes(t *testing.T) {
	tn := buildTestNet(t, 5)
	tn.startEcho(t, "web", 80)
	client := New(tn.net.AddHost("client", 0), tn.cons, 4)
	client.SetCtrlTimeout(30 * time.Second) // virtual; speeds stall detection
	tn.crash(tn.relays[0])
	tn.crash(tn.relays[1])

	conn, circ, err := client.DialResilient("web", 80, "web:80", 8)
	if err != nil {
		t.Fatalf("DialResilient with 2/5 relays down: %v", err)
	}
	defer conn.Close()
	defer circ.Close()
	for _, d := range circ.Path() {
		if d.Nickname == "relay0" || d.Nickname == "relay1" {
			t.Fatalf("path uses crashed relay %s", d.Nickname)
		}
	}
	if _, err := conn.Write([]byte("alive")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := io.ReadAtLeast(conn, buf, 5); err != nil {
		t.Fatalf("echo through healed path: %v", err)
	}
}

// TestStreamWriteDeadline exercises the write-deadline path: an expired
// deadline fails the write with a timeout error, and clearing it restores
// writes.
func TestStreamWriteDeadline(t *testing.T) {
	tn := buildTestNet(t, 4)
	tn.startEcho(t, "web", 80)
	client := New(tn.net.AddHost("client", 0), tn.cons, 6)
	conn, circ, err := client.DialResilient("web", 80, "web:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	defer circ.Close()

	conn.SetWriteDeadline(time.Now().Add(-time.Second))
	if _, err := conn.Write([]byte("late")); err == nil {
		t.Fatal("write succeeded past its deadline")
	} else if to, ok := err.(interface{ Timeout() bool }); !ok || !to.Timeout() {
		t.Fatalf("expired write deadline returned %v, want a timeout error", err)
	}
	conn.SetWriteDeadline(time.Time{})
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatalf("write after clearing deadline: %v", err)
	}
	buf := make([]byte, 8)
	if _, err := io.ReadAtLeast(conn, buf, 4); err != nil {
		t.Fatal(err)
	}
}

// crash crashes r's machine through the network's chaos controller.
func (tn *testNet) crash(r *relay.Relay) {
	ch := tn.net.Chaos()
	if ch == nil {
		ch = tn.net.EnableChaos(1)
	}
	ch.CrashHost(r.Host().Name())
}

func relayIndex(t *testing.T, nickname string) int {
	t.Helper()
	var idx int
	if _, err := fmt.Sscanf(nickname, "relay%d", &idx); err != nil {
		t.Fatalf("unexpected relay nickname %q", nickname)
	}
	return idx
}
