// Command torsim boots the emulated Tor overlay and runs a self-test:
// it builds circuits, opens exit streams, exercises a hidden-service
// rendezvous and a Bento function round trip, converges a 2-replica
// fleet under the declarative fleet controller, and prints the
// resulting consensus and timing summary. With -stats it attaches the telemetry
// registry to the whole deployment, prints a compact per-window HUD
// line while the self-test runs (rolling rates from the windowed
// sampler), and dumps the full dashboard — per-component counters,
// latency histograms with windowed percentiles, and the slowest trace
// spans — at exit.
//
// Usage:
//
//	torsim -relays 8 -scale 0.01
//	torsim -stats
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/fleet"
	"github.com/bento-nfv/bento/internal/hs"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/testbed"
	"github.com/bento-nfv/bento/internal/webfarm"
)

func main() {
	relays := flag.Int("relays", 8, "number of relays")
	bentoNodes := flag.Int("bento", 2, "how many relays also run Bento servers")
	scale := flag.Float64("scale", 0.005, "virtual clock scale (smaller = faster)")
	stats := flag.Bool("stats", false, "attach telemetry and dump the live dashboard at exit")
	flag.Parse()

	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry()
		// Mirror completed trace spans (circuit builds, bento ops) into
		// span.* histograms so the windowed sampler rates them too.
		reg.ExportSpansAsSeries()
	}
	site := webfarm.NamedSite("selftest.web", 10_000, []int{20_000, 15_000})
	w, err := testbed.New(testbed.Config{
		Relays:     *relays,
		BentoNodes: *bentoNodes,
		Sites:      []*webfarm.Site{site},
		ClockScale: *scale,
		Obs:        reg,
		ObsWindow:  500 * time.Millisecond,
	})
	if err != nil {
		fail("building overlay: %v", err)
	}
	defer w.Close()
	clock := w.Clock()

	// The live HUD: one compact line per telemetry window, printed on
	// the window's tick.
	w.Windower().OnWindow(func(ws *obs.WindowSnapshot) {
		line := fmt.Sprintf("[hud] t=%-8v series=%-3d", ws.At.Round(10*time.Millisecond), len(ws.Series))
		if st := ws.Find("simnet.dials"); st != nil {
			line += fmt.Sprintf(" dials/s=%-7.1f", st.Rate)
		}
		if st := ws.Find("simnet.bytes_sent"); st != nil {
			line += fmt.Sprintf(" sentB/s=%-9.0f", st.Rate)
		}
		if st := ws.Find("simnet.open_conns"); st != nil {
			line += fmt.Sprintf(" conns=%-4d", st.Last)
		}
		if st := ws.Find("bento.invokes"); st != nil {
			line += fmt.Sprintf(" invokes/s=%-5.1f", st.Rate)
		}
		if st := ws.Find("span.circuit.build_ns"); st != nil && st.Count > 0 {
			line += fmt.Sprintf(" build.p95=%v", time.Duration(st.P95).Round(time.Microsecond))
		}
		fmt.Println(line)
	})

	fmt.Printf("overlay up: %d relays, consensus signed by directory authority\n", len(w.Consensus.Relays))
	for _, d := range w.Consensus.Relays {
		fmt.Printf("  %-10s %-22s flags=%v\n", d.Nickname, d.Address, d.Flags)
	}

	// 1. Three-hop circuit with an exit stream.
	cli := w.NewTorClient("selftest-client", 1)
	path, err := cli.PickPath("selftest.web", webfarm.Port)
	if err != nil {
		fail("path selection: %v", err)
	}
	t0 := clock.Now()
	circ, err := cli.BuildCircuit(path)
	if err != nil {
		fail("circuit build: %v", err)
	}
	buildTime := clock.Now() - t0
	fmt.Printf("\ncircuit: %s -> %s -> %s (built in %v virtual)\n",
		path[0].Nickname, path[1].Nickname, path[2].Nickname, buildTime)

	t0 = clock.Now()
	page, err := webfarm.FetchPage(circ.OpenStream, "selftest.web")
	if err != nil {
		fail("page fetch: %v", err)
	}
	fmt.Printf("fetched %d bytes through the circuit in %v virtual\n", len(page), clock.Now()-t0)
	circ.Close()

	// 2. Hidden-service rendezvous round trip.
	svcTor := w.NewTorClient("selftest-service", 2)
	ident, err := hs.NewIdentity()
	if err != nil {
		fail("identity: %v", err)
	}
	svc, err := hs.Launch(svcTor, ident, hs.ServiceConfig{
		Handler: func(c net.Conn) {
			defer c.Close()
			io.Copy(c, c)
		},
	})
	if err != nil {
		fail("hidden service launch: %v", err)
	}
	defer svc.Close()

	t0 = clock.Now()
	conn, err := hs.Dial(cli, svc.ServiceID())
	if err != nil {
		fail("hidden service dial: %v", err)
	}
	msg := []byte("rendezvous self-test payload")
	conn.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, msg) {
		fail("hidden service echo mismatch: %v", err)
	}
	conn.Close()
	fmt.Printf("hidden service %s…: rendezvous echo OK in %v virtual\n",
		svc.ServiceID()[:16], clock.Now()-t0)

	// 3. Bento function round trip: spawn, upload, invoke.
	if *bentoNodes > 0 {
		bcli := w.NewBentoClient("selftest-bento", 3)
		node := w.BentoNode(0)
		if node == nil {
			fail("no Bento node in consensus")
		}
		t0 = clock.Now()
		sess := bcli.NewSession(node, bento.SessionConfig{})
		fn, err := sess.Spawn(&policy.Manifest{
			Name:         "selftest-fn",
			Image:        "python",
			Memory:       4 << 20,
			Instructions: 1_000_000,
		})
		if err != nil {
			fail("bento spawn on %s: %v", node.Nickname, err)
		}
		if err := fn.Upload("def ping(x):\n    return x + 1\n"); err != nil {
			fail("bento upload: %v", err)
		}
		_, result, err := fn.Invoke("ping", interp.Int(41))
		if err != nil {
			fail("bento invoke: %v", err)
		}
		if got, ok := result.(interp.Int); !ok || got != 42 {
			fail("bento invoke returned %v, want 42", result)
		}
		fn.Shutdown()
		sess.Close()
		fmt.Printf("bento function on %s: spawn+upload+invoke OK in %v virtual\n",
			node.Nickname, clock.Now()-t0)
	}

	// 4. Fleet controller: declare a replicated function and let the
	// reconciler place it across the Bento nodes.
	if *bentoNodes >= 2 {
		ctrl, err := w.NewFleetController("selftest-fleet", fleet.Config{Seed: 4})
		if err != nil {
			fail("fleet controller: %v", err)
		}
		defer ctrl.Close()
		t0 = clock.Now()
		err = ctrl.Apply(&fleet.Spec{
			Name:     "selftest-fleet",
			Replicas: 2,
			Manifest: &policy.Manifest{
				Name:         "selftest-fleet",
				Image:        "python",
				Memory:       4 << 20,
				Instructions: 1_000_000,
			},
			Source:   "def ping(x):\n    return x + 1\n\ndef health():\n    return 1\n",
			HealthFn: "health",
		})
		if err != nil {
			fail("fleet apply: %v", err)
		}
		if err := ctrl.WaitConverged(60 * time.Second); err != nil {
			fail("fleet convergence: %v", err)
		}
		convTime := clock.Now() - t0
		fcli := w.NewBentoClient("selftest-fleet-client", 5)
		var nodes []string
		for _, ep := range ctrl.Endpoints() {
			fsess := fcli.NewSession(ep.Node, bento.SessionConfig{})
			ffn := fsess.Attach(ep.InvokeToken)
			_, result, err := ffn.Invoke("ping", interp.Int(41))
			if err != nil {
				fail("fleet invoke on %s: %v", ep.Node.Nickname, err)
			}
			if got, ok := result.(interp.Int); !ok || got != 42 {
				fail("fleet invoke on %s returned %v, want 42", ep.Node.Nickname, result)
			}
			fsess.Close()
			nodes = append(nodes, ep.Node.Nickname)
		}
		fmt.Printf("fleet: %d replicas converged on %v in %v virtual, all replicas answering\n",
			len(nodes), nodes, convTime)
	}

	fmt.Println("\nself-test passed")

	if reg != nil {
		if wind := w.Windower(); wind != nil {
			if ws := wind.Window(); ws != nil {
				fmt.Println("\n=== last telemetry window ===")
				fmt.Println(ws.Dashboard())
			}
		}
		fmt.Println("\n=== telemetry dashboard ===")
		fmt.Println(reg.Snapshot().Dashboard())
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "torsim: "+format+"\n", args...)
	os.Exit(1)
}
