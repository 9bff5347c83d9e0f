package bench

import (
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/obs"
)

// TestChaosTelemetry runs the chaos workload with a live registry
// attached and checks that the self-healing machinery's work is visible
// in the telemetry: circuit-death detections, client-side heal retries
// (the session layer's, which is what recovers Bento operations), and
// server-watchdog restarts must all be non-zero, along with the chaos
// injector's own fault counters. This is the end-to-end proof that the
// observability layer sees the PR-1 failure paths, not just the happy
// path.
func TestChaosTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos workload is slow")
	}
	cfg := DefaultChaosConfig()
	cfg.Replicas = 2
	cfg.Clients = 4
	cfg.Ops = 16
	cfg.FileSize = 64 << 10
	cfg.NodeOutage = 1 * time.Second
	cfg.ClockScale = 0.05
	cfg.Obs = obs.NewRegistry()

	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Faulted.Restarts < 1 {
		t.Fatalf("killed replica was never revived (restarts = %d)", res.Faulted.Restarts)
	}

	snap := cfg.Obs.Snapshot()
	mustPositive := func(name string) {
		t.Helper()
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	// The faulted run severs circuits (node outage, relay crash), so the
	// clients must have detected deaths and healed around them.
	mustPositive("torclient.circuit_deaths")
	mustPositive("torclient.relays_marked_bad")
	mustPositive("bento.session_retries")
	mustPositive("bento.watchdog_restarts")
	// The injector itself reports what it did.
	mustPositive("simnet.chaos_losses")
	mustPositive("simnet.chaos_host_crashes")
	mustPositive("simnet.chaos_host_restarts")
	// And the workload's bulk counters aggregate across both conditions.
	mustPositive("torclient.circuits_built")
	mustPositive("torclient.cells_sent")
	mustPositive("relay.cells_forwarded")
	mustPositive("bento.invokes")
	mustPositive("interp.invocations")

	if snap.Spans.Total == 0 {
		t.Error("no spans recorded across the chaos workload")
	}
}
