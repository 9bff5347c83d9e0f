package bench

import (
	"runtime"
	"testing"
)

// TestScaleShape runs a scaled-down scale experiment end to end: every
// client must complete a real telescoped 3-hop build on the event core,
// the HS fraction must land its rendezvous ops, cell accounting must
// match the topology exactly, and latency percentiles must be ordered
// and positive.
//
// Pinned to one P: the event core's settle is unsound on 2 P
// (benchmark/README.md, "Recorded limits" — a driver still computing on
// the other P looks quiescent and its control timeout is sprinted past),
// which failed this test about 1 run in 6.
func TestScaleShape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := ScaleConfig{
		Clients:        400,
		Relays:         2,
		Drivers:        32,
		CellsPerClient: 3,
		HSFrac:         0.1,
		Seed:           7,
		Quiet:          true,
	}
	res, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.String())
	if res.CircuitsBuilt != int64(cfg.Clients) || res.BuildFailures != 0 {
		t.Fatalf("built %d circuits with %d failures, want %d/0",
			res.CircuitsBuilt, res.BuildFailures, cfg.Clients)
	}
	if res.HSOps != int64(cfg.Clients/10) {
		t.Fatalf("HS ops = %d, want %d", res.HSOps, cfg.Clients/10)
	}
	// Per client on its own link: CREATE+CREATED, 2 EXTENDs, 2
	// EXTENDEDs, and the cover pump (6+C). Relay-side: the second
	// EXTEND is forwarded once (guard→middle), its EXTENDED relayed
	// back once, and each cover cell crosses both forwarding hops
	// (2C+2). Each HS op adds ESTABLISH_RENDEZVOUS+ack on the client
	// link (2) plus two forwards and two relays-back inside the circuit
	// (4). Total: Clients*(8+3C) + 6*HSOps.
	wantCells := int64(cfg.Clients*(8+3*cfg.CellsPerClient)) + 6*res.HSOps
	if res.CellsTotal != wantCells {
		t.Fatalf("cells = %d, want %d", res.CellsTotal, wantCells)
	}
	if res.BuildP50Ms <= 0 || res.BuildP99Ms < res.BuildP50Ms {
		t.Fatalf("latency percentiles out of order: p50=%.1f p99=%.1f",
			res.BuildP50Ms, res.BuildP99Ms)
	}
	if res.VirtualSeconds <= 0 {
		t.Fatal("virtual clock never advanced")
	}
}
