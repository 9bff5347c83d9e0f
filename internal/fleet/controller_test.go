package fleet_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/fleet"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/testbed"
)

// fleetSource is the replica program: a trivial serve endpoint plus a
// health check.
const fleetSource = `
def serve():
    api.send(b"v1")
    return 1

def health():
    return 1
`

const fleetSourceV2 = `
def serve():
    api.send(b"v2")
    return 1

def health():
    return 1
`

func fleetManifest() *policy.Manifest {
	return &policy.Manifest{
		Name:         "fleet-fn",
		Image:        "python",
		Calls:        []string{"tor.send", "fs.read", "fs.write", "clock.now", "clock.sleep"},
		Memory:       8 << 20,
		Instructions: 5_000_000,
		Storage:      8 << 20,
		Restart:      policy.RestartOnFailure,
	}
}

func fleetSpec(replicas int) *fleet.Spec {
	return &fleet.Spec{
		Name:     "web-fleet",
		Replicas: replicas,
		Manifest: fleetManifest(),
		Source:   fleetSource,
		HealthFn: "health",
	}
}

// fleetWorld builds a deployment with nBento Bento relays spread over
// families and a running controller.
func fleetWorld(t *testing.T, relays, nBento, families int) (*testbed.World, *fleet.Controller) {
	t.Helper()
	w, err := testbed.New(testbed.Config{
		Relays:     relays,
		BentoNodes: nBento,
		Families:   families,
		ClockScale: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ctl, err := w.NewFleetController("fleet-ctl", fleet.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)
	return w, ctl
}

// serveAll invokes serve on every ready endpoint through an independent
// client session and returns the responses keyed by relay nickname.
func serveAll(t *testing.T, w *testbed.World, ctl *fleet.Controller, seed int64) map[string]string {
	t.Helper()
	cli := w.NewBentoClient(fmt.Sprintf("probe%d", seed), seed)
	out := make(map[string]string)
	for _, ep := range ctl.Endpoints() {
		sess := cli.NewSession(ep.Node, bento.SessionConfig{Seed: seed})
		fn := sess.Attach(ep.InvokeToken)
		body, _, err := fn.Invoke("serve")
		if err != nil {
			t.Fatalf("serve on %s: %v", ep.Node.Nickname, err)
		}
		out[ep.Node.Nickname] = string(body)
		sess.Close()
	}
	return out
}

func waitStatus(t *testing.T, ctl *fleet.Controller, w *testbed.World, timeout time.Duration, ok func(fleet.Status) bool) fleet.Status {
	t.Helper()
	deadline := w.Clock().Now() + timeout
	for w.Clock().Now() < deadline {
		st := ctl.Status()
		if ok(st) {
			return st
		}
		w.Clock().Sleep(100 * time.Millisecond)
	}
	st := ctl.Status()
	if ok(st) {
		return st
	}
	t.Fatalf("status condition not reached after %v: %+v", timeout, st)
	return st
}

func distinctFamilies(st fleet.Status) bool {
	seen := make(map[string]bool)
	for _, s := range st.Slots {
		if s.Phase != fleet.PhaseReady {
			continue
		}
		if seen[s.Family] {
			return false
		}
		seen[s.Family] = true
	}
	return true
}

func TestFleetConvergesAcrossFamilies(t *testing.T) {
	w, ctl := fleetWorld(t, 6, 4, 4)
	if err := ctl.Apply(fleetSpec(3)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := ctl.Status()
	if st.Ready != 3 {
		t.Fatalf("ready = %d, want 3", st.Ready)
	}
	if !distinctFamilies(st) {
		t.Fatalf("replicas share a family: %+v", st.Slots)
	}
	for node, body := range serveAll(t, w, ctl, 7) {
		if body != "v1" {
			t.Fatalf("replica on %s served %q, want v1", node, body)
		}
	}
}

func TestFleetReplacesCrashedRelay(t *testing.T) {
	w, ctl := fleetWorld(t, 6, 4, 4)
	ch := w.EnableChaos(99)
	if err := ctl.Apply(fleetSpec(3)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	victim := ctl.Endpoints()[0].Node.Nickname
	ch.CrashHost(victim)

	// The controller must notice via failed probes, place a replacement
	// elsewhere, and reconverge with family spread intact.
	st := waitStatus(t, ctl, w, 120*time.Second, func(st fleet.Status) bool {
		if !st.Converged {
			return false
		}
		for _, s := range st.Slots {
			if s.Node == victim {
				return false
			}
		}
		return true
	})
	if !distinctFamilies(st) {
		t.Fatalf("replacement broke family spread: %+v", st.Slots)
	}
	for node, body := range serveAll(t, w, ctl, 8) {
		if body != "v1" {
			t.Fatalf("replica on %s served %q, want v1", node, body)
		}
	}

	// The dead node may hold an orphaned container (its shutdown could
	// not be confirmed). Once the host comes back, the reaper must
	// shut the survivor down by replaying its spawn key.
	ch.RestartHost(victim)
	waitStatus(t, ctl, w, 120*time.Second, func(st fleet.Status) bool {
		return st.Converged && st.Orphans == 0
	})
	var victimServer = -1
	for i := range w.Servers {
		if w.BentoNode(i).Nickname == victim {
			victimServer = i
		}
	}
	if victimServer < 0 {
		t.Fatalf("victim %s not a bento node", victim)
	}
	waitFor(t, w, 60*time.Second, func() bool {
		return w.Servers[victimServer].FunctionCount() == 0
	}, "orphaned container reaped on restarted host")
}

func waitFor(t *testing.T, w *testbed.World, timeout time.Duration, ok func() bool, what string) {
	t.Helper()
	deadline := w.Clock().Now() + timeout
	for w.Clock().Now() < deadline {
		if ok() {
			return
		}
		w.Clock().Sleep(100 * time.Millisecond)
	}
	if !ok() {
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestFleetRetiresNodeThatLeftConsensus(t *testing.T) {
	w, ctl := fleetWorld(t, 6, 4, 4)
	if err := ctl.Apply(fleetSpec(3)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := ctl.Endpoints()[0].Node.Nickname

	// The relay drops out of the directory but its host stays up: only
	// the consensus watch can catch this (probes still succeed).
	w.Auth.Remove(victim)

	waitStatus(t, ctl, w, 120*time.Second, func(st fleet.Status) bool {
		if !st.Converged {
			return false
		}
		for _, s := range st.Slots {
			if s.Node == victim {
				return false
			}
		}
		return true
	})
	// The node was reachable, so the old replica must have been shut
	// down cleanly — no orphan bookkeeping, no leaked container.
	if st := ctl.Status(); st.Orphans != 0 {
		t.Fatalf("orphans = %d after clean eviction, want 0", st.Orphans)
	}
}

func TestFleetPartitionHealsWithoutDuplicates(t *testing.T) {
	// Exactly as many Bento nodes as replicas: when one is partitioned
	// away there is nowhere to move, so the controller must stay sticky
	// and adopt the surviving container after the heal — not duplicate it.
	w, ctl := fleetWorld(t, 6, 3, 3)
	ch := w.EnableChaos(99)
	if err := ctl.Apply(fleetSpec(3)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	before := make(map[string]bool)
	for _, ep := range ctl.Endpoints() {
		before[ep.Node.Nickname] = true
	}

	// Cut the victim relay off from every other host (full partition:
	// dials fail, in-flight chunks stall). The replica keeps running
	// behind the partition.
	victim := ctl.Endpoints()[0].Node.Nickname
	var hosts []string
	for i := range w.Relays {
		hosts = append(hosts, fmt.Sprintf("relay%d", i))
	}
	hosts = append(hosts, "fleet-ctl")
	for _, h := range hosts {
		if h != victim {
			ch.Partition(victim, h)
			ch.Partition(h, victim)
		}
	}

	// Wait until the controller has noticed (fleet diverges).
	waitStatus(t, ctl, w, 120*time.Second, func(st fleet.Status) bool {
		return !st.Converged
	})

	ch.HealAll()
	waitStatus(t, ctl, w, 180*time.Second, func(st fleet.Status) bool {
		return st.Converged && st.Orphans == 0
	})

	// Same placement as before the partition, and exactly one container
	// per node: the spawn key was adopted, not re-spawned.
	after := make(map[string]bool)
	for _, ep := range ctl.Endpoints() {
		after[ep.Node.Nickname] = true
	}
	for n := range before {
		if !after[n] {
			t.Fatalf("replica moved off %s despite having nowhere to go", n)
		}
	}
	for i := 0; i < 3; i++ {
		if got := w.Servers[i].FunctionCount(); got != 1 {
			t.Fatalf("server %d holds %d functions after heal, want 1 (duplicate replica?)", i, got)
		}
	}
}

// poisonSource crash-loops: health() burns through the instruction
// budget every time, so every placement fails its readiness check.
const poisonSource = `
def serve():
    api.send(b"poison")
    return 1

def health():
    while 1:
        x = 1
`

func TestFleetBreakerTripsOnCrashLoop(t *testing.T) {
	w, ctl := fleetWorld(t, 6, 4, 4)
	man := fleetManifest()
	man.Instructions = 300_000
	man.Restart = policy.RestartNever
	spec := &fleet.Spec{
		Name:     "poison-fleet",
		Replicas: 1,
		Manifest: man,
		Source:   poisonSource,
		HealthFn: "health",
	}
	if err := ctl.Apply(spec); err != nil {
		t.Fatal(err)
	}

	// Every placement attempt fails readiness; after breakerThreshold
	// consecutive short-lived placements the slot's breaker must open.
	st := waitStatus(t, ctl, w, 180*time.Second, func(st fleet.Status) bool {
		return len(st.Slots) == 1 && st.Slots[0].BreakerOpen
	})
	if st.Converged {
		t.Fatal("fleet reports converged with a poisoned replica")
	}
	// No replica containers may linger from the failed attempts.
	waitFor(t, w, 60*time.Second, func() bool {
		total := 0
		for _, s := range w.Servers {
			total += s.FunctionCount()
		}
		return total == 0
	}, "poisoned placements torn down")
}

func TestFleetRollingUpgrade(t *testing.T) {
	w, ctl := fleetWorld(t, 6, 4, 4)
	if err := ctl.Apply(fleetSpec(3)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	tokens := make(map[string]string)
	for _, ep := range ctl.Endpoints() {
		tokens[ep.Node.Nickname] = ep.InvokeToken
	}

	v2 := fleetSpec(3)
	v2.Source = fleetSourceV2
	if err := ctl.Apply(v2); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitConverged(120 * time.Second); err != nil {
		t.Fatal(err)
	}

	for node, body := range serveAll(t, w, ctl, 9) {
		if body != "v2" {
			t.Fatalf("replica on %s served %q after upgrade, want v2", node, body)
		}
	}
	// In-place upgrade: same nodes, same capability tokens, still one
	// container per node.
	eps := ctl.Endpoints()
	if len(eps) != 3 {
		t.Fatalf("endpoints = %d after upgrade, want 3", len(eps))
	}
	for _, ep := range eps {
		if tok, ok := tokens[ep.Node.Nickname]; !ok || tok != ep.InvokeToken {
			t.Fatalf("upgrade re-placed %s (token changed): in-place upload expected", ep.Node.Nickname)
		}
	}
}

func TestFleetScaleDown(t *testing.T) {
	w, ctl := fleetWorld(t, 6, 4, 4)
	if err := ctl.Apply(fleetSpec(3)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Apply(fleetSpec(1)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, w, 60*time.Second, func() bool {
		total := 0
		for _, s := range w.Servers {
			total += s.FunctionCount()
		}
		return total == 1
	}, "excess replicas shut down")
	if got := len(ctl.Endpoints()); got != 1 {
		t.Fatalf("endpoints = %d after scale down, want 1", got)
	}
}

func TestFleetReplacesCrashLoopingReplica(t *testing.T) {
	w, ctl := fleetWorld(t, 6, 4, 4)
	if err := ctl.Apply(fleetSpec(3)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash-loop one replica: every kill is revived by the node's
	// watchdog (the controller's own health probes drive the revival)
	// until the restart-storm guard declares it permanently failed; the
	// controller must read that as grounds for immediate replacement.
	victim := ctl.Endpoints()[0]
	var srv = -1
	for i := range w.Servers {
		if w.BentoNode(i).Nickname == victim.Node.Nickname {
			srv = i
		}
	}
	if srv < 0 {
		t.Fatalf("victim %s not a bento node", victim.Node.Nickname)
	}
	replaced := func() bool {
		for _, ep := range ctl.Endpoints() {
			if ep.Node.Nickname == victim.Node.Nickname {
				return false
			}
		}
		return ctl.Converged()
	}
	for i := 0; i < 50 && !replaced(); i++ {
		w.Servers[srv].KillFunction(victim.InvokeToken)
		w.Clock().Sleep(400 * time.Millisecond)
	}
	st := waitStatus(t, ctl, w, 120*time.Second, func(st fleet.Status) bool {
		if !st.Converged {
			return false
		}
		for _, s := range st.Slots {
			if s.Node == victim.Node.Nickname {
				return false
			}
		}
		return true
	})
	if !distinctFamilies(st) {
		t.Fatalf("replacement broke family spread: %+v", st.Slots)
	}
	// The node was reachable throughout, so the perm-failed corpse must
	// have been shut down cleanly — no leak, no orphan bookkeeping.
	waitFor(t, w, 60*time.Second, func() bool {
		return w.Servers[srv].FunctionCount() == 0
	}, "perm-failed replica shut down on its node")
	if got := ctl.Status().Orphans; got != 0 {
		t.Fatalf("orphans = %d after clean replacement, want 0", got)
	}
}
