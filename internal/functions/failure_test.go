package functions_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/functions"
	"github.com/bento-nfv/bento/internal/hs"
	"github.com/bento-nfv/bento/internal/interp"
)

// TestLoadBalancerSurvivesReplicaFailure injects a replica-node failure
// mid-run: the balancer must evict the dead replica and keep serving
// clients from a fresh one (the try/except hardening in
// LoadBalancerSource).
func TestLoadBalancerSurvivesReplicaFailure(t *testing.T) {
	w := newWorld(t, 7, 3) // node0 = front, nodes 1-2 = replica hosts
	clock := w.Clock()

	ident, err := hs.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	identBlob, _ := ident.Marshal()
	content := make([]byte, 64*1024)

	owner := w.NewBentoClient("owner", 50)
	conn, err := owner.Connect(w.BentoNode(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	lb, err := functions.Deploy(conn, functions.DefaultManifest("lb", "python"), functions.LoadBalancerSource)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Shutdown()

	nodes := &interp.List{Elems: []interp.Value{
		interp.Str(w.BentoNode(1).Nickname),
		interp.Str(w.BentoNode(2).Nickname),
	}}
	runDone := make(chan error, 1)
	go func() {
		_, err := lb.InvokeStream("run", []interp.Value{
			interp.Bytes(identBlob), interp.Bytes(content), nodes,
			interp.Str(functions.ReplicaSource),
			interp.Int(1),                         // watermark 1: each client spawns/occupies a replica
			interp.Int(2), interp.Int(20_000_000), // long-lived at the fast clock scale
		}, nil)
		runDone <- err
	}()

	// Wait for the descriptor.
	probe := w.NewTorClient("probe", 51)
	for i := 0; ; i++ {
		if _, err := hs.FetchDescriptor(probe.Host(), probe.Consensus(), ident.ServiceID()); err == nil {
			break
		}
		if i > 200 {
			t.Fatal("descriptor never published")
		}
		clock.Sleep(300 * time.Millisecond)
	}

	download := func(name string, seed int64) error {
		cli := w.NewTorClient(name, seed)
		c, err := hs.Dial(cli, ident.ServiceID())
		if err != nil {
			return fmt.Errorf("%s dial: %w", name, err)
		}
		defer c.Close()
		n, err := io.Copy(io.Discard, c)
		if err != nil {
			return fmt.Errorf("%s read: %w", name, err)
		}
		if int(n) != len(content) {
			return fmt.Errorf("%s got %d bytes, want %d", name, n, len(content))
		}
		return nil
	}

	// Client 1 is served by the first replica (on node 1).
	if err := download("client1", 52); err != nil {
		t.Fatal(err)
	}

	// Inject the failure: node 1's Bento server dies, killing its
	// replica function and the front's connection to it.
	w.Servers[1].Close()

	// Subsequent clients must still be served (replica on node 2).
	for i := 2; i <= 3; i++ {
		if err := download(fmt.Sprintf("client%d", i), int64(52+i)); err != nil {
			t.Fatalf("after replica failure: %v", err)
		}
	}

	select {
	case err := <-runDone:
		// The balancer may legitimately still be running; an early exit
		// must at least not be an error.
		if err != nil {
			t.Fatalf("LoadBalancer died: %v", err)
		}
	default:
	}
}

// TestCircuitSurvivesMidStreamRelayCrash kills a middle relay while a
// stream is active: the client must observe a clean error, not a hang.
func TestCircuitSurvivesMidStreamRelayCrash(t *testing.T) {
	w := newWorld(t, 5, 1)
	cli := w.NewBentoClient("alice", 60)

	// Build a circuit through relays 1,2,3 to a destination echo on the
	// web host (use the Bento server itself as the destination service).
	conn, err := cli.Connect(w.BentoNode(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := functions.Deploy(conn, functions.DefaultManifest("echo", "python"), functions.EchoSource)
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()

	// Find a middle relay of the connection's circuit and kill it.
	// (Connect's path ends at the Bento node; earlier hops are fair
	// game.) We can't see the path directly, so kill all non-Bento
	// relays' hosts — brutal, but the observable contract is the
	// same: pending operations fail rather than hang.
	chaos := w.Net.Chaos()
	if chaos == nil {
		chaos = w.EnableChaos(1)
	}
	for i, r := range w.Relays {
		if i == 0 {
			continue // keep the Bento node itself
		}
		chaos.CrashHost(r.Host().Name())
	}
	errCh := make(chan error, 1)
	go func() {
		_, _, err := fn.Invoke("echo", interp.Bytes("after crash"))
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("invoke succeeded across a destroyed circuit")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("invoke hung after relay crash")
	}
}
