package testbed

import (
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/functions"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/webfarm"
)

func TestNewDefaults(t *testing.T) {
	w, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(w.Relays) != 6 {
		t.Fatalf("got %d relays, want default 6", len(w.Relays))
	}
	if len(w.Consensus.Relays) != 6 {
		t.Fatalf("consensus has %d relays", len(w.Consensus.Relays))
	}
}

func TestBentoNodesAdvertised(t *testing.T) {
	w, err := New(Config{Relays: 5, BentoNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	nodes := w.Consensus.BentoNodes()
	if len(nodes) != 2 {
		t.Fatalf("got %d Bento nodes, want 2", len(nodes))
	}
	if w.BentoNode(0) == nil || w.BentoNode(2) != nil || w.BentoNode(-1) != nil {
		t.Fatal("BentoNode indexing broken")
	}
	if len(w.Servers) != 2 {
		t.Fatalf("got %d servers", len(w.Servers))
	}
}

func TestFastFlagAssignment(t *testing.T) {
	w, err := New(Config{Relays: 4, BentoNodes: 2, BentoEgress: 100 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, d := range w.Consensus.WithFlag(dirauth.FlagBento) {
		if d.HasFlag(dirauth.FlagFast) {
			t.Errorf("capped Bento node %d carries Fast flag", i)
		}
	}
	fast := w.Consensus.WithFlag(dirauth.FlagFast)
	if len(fast) != 2 {
		t.Fatalf("got %d Fast relays, want the 2 uncapped ones", len(fast))
	}
}

func TestSitesServed(t *testing.T) {
	site := webfarm.NamedSite("hello.web", 2000, nil)
	w, err := New(Config{Relays: 3, Sites: []*webfarm.Site{site}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cli := w.NewTorClient("probe", 1)
	body, err := webfarm.Get(cli.Host().Dial, "hello.web", "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 2000 {
		t.Fatalf("served %d bytes", len(body))
	}
}

// TestSitesServedEventClock runs the same end-to-end fetch — directory
// bootstrap, 3-hop circuit build, HTTP over the circuit — on the
// discrete-event clock, proving the full stack's goroutine code
// interoperates with the virtual-time scheduler.
func TestSitesServedEventClock(t *testing.T) {
	site := webfarm.NamedSite("hello.web", 2000, nil)
	w, err := New(Config{Relays: 3, Sites: []*webfarm.Site{site}, EventClock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Clock().EventDriven() {
		t.Fatal("EventClock config did not select the event core")
	}
	cli := w.NewTorClient("probe", 1)
	body, err := webfarm.Get(cli.Host().Dial, "hello.web", "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 2000 {
		t.Fatalf("served %d bytes", len(body))
	}
}

// TestWindowerOnEventClock proves the deployment-owned sampler ticks in
// virtual time: on the discrete-event clock a full fetch advances the
// clock seconds in microseconds of wall time, and the windower must
// have sampled once per virtual interval along the way — not once per
// wall interval (which would be zero samples).
func TestWindowerOnEventClock(t *testing.T) {
	site := webfarm.NamedSite("hello.web", 2000, nil)
	reg := obs.NewRegistry()
	w, err := New(Config{
		Relays:     3,
		Sites:      []*webfarm.Site{site},
		EventClock: true,
		Obs:        reg,
		ObsWindow:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	wind := w.Windower()
	if wind == nil {
		t.Fatal("ObsWindow set but no windower")
	}
	sub := wind.Subscribe(64)
	cli := w.NewTorClient("probe", 1)
	if _, err := webfarm.Get(cli.Host().Dial, "hello.web", "/"); err != nil {
		t.Fatal(err)
	}
	start := w.Clock().Now()
	w.Clock().Sleep(2 * time.Second)
	elapsed := w.Clock().Now() - start
	samples := wind.Samples()
	if want := uint64(elapsed / (250 * time.Millisecond)); samples < want {
		t.Fatalf("sampler took %d samples over %v virtual, want >= %d", samples, elapsed, want)
	}
	// The published windows carry virtual timestamps and the fetch's
	// traffic.
	var sawBytes bool
	ws := wind.Window()
	if ws == nil {
		t.Fatal("no window snapshot")
	}
	if st := ws.Find("simnet.bytes_sent"); st != nil && st.Last > 0 {
		sawBytes = true
	}
	if !sawBytes {
		t.Fatal("windowed series missing the fetch's simnet.bytes_sent")
	}
	drainTo := time.Duration(0)
	for {
		select {
		case snap := <-sub.C():
			if snap.At > drainTo {
				drainTo = snap.At
			}
			continue
		default:
		}
		break
	}
	if drainTo == 0 {
		t.Fatal("stream delivered no windows")
	}
	sub.Close()
}

func TestWindowerNilWithoutObs(t *testing.T) {
	w, err := New(Config{Relays: 3, ObsWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Windower() != nil {
		t.Fatal("windower started without a registry")
	}
	w.Windower().Close() // nil no-op contract
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Relays: 2, BentoNodes: 5}); err == nil {
		t.Fatal("BentoNodes > Relays accepted")
	}
}

// One small request is one frame, one stream write and so one DATA cell:
// over a 3-hop circuit a noop invoke moves exactly one forward cell
// through each of the two forwarding relays (the exit recognizes it). A
// frame written as header then body would move two.
func TestNoopInvokeIsOneForwardCellPerHop(t *testing.T) {
	reg := obs.NewRegistry()
	w, err := New(Config{Relays: 3, BentoNodes: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	conn, err := w.NewBentoClient("alice", 1).Connect(w.BentoNode(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := functions.Deploy(conn, functions.DefaultManifest("noop", "python"), "def noop():\n    return 0\n")
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()
	forwarded := reg.Counter("relay.cells_forwarded")
	for i := 0; i < 3; i++ {
		before := forwarded.Value()
		if _, _, err := fn.Invoke("noop"); err != nil {
			t.Fatal(err)
		}
		// The reply proves both relays forwarded the request; give a relay
		// that counts after its link write a moment to do so.
		for deadline := time.Now().Add(time.Second); forwarded.Value()-before < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := forwarded.Value() - before; got != 2 {
			t.Fatalf("invoke %d forwarded %d cells over two relays, want 2", i, got)
		}
	}
}
