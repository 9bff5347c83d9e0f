package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/fleet"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/testbed"
)

// FleetBenchConfig describes the fleet-reconciliation experiment: a
// replicated content fleet under a controller, with clients hammering it
// while the harness kills relays, partitions the network, and crash-loops
// a replica. Measured: virtual time-to-reconverge per fault, and the
// client-visible request success rate (with endpoint failover, the target
// is zero app-visible errors once the fleet reports converged).
type FleetBenchConfig struct {
	// Replicas is the fleet's desired replica count.
	Replicas int
	// BentoNodes > Replicas leaves spare capacity for replacements.
	BentoNodes int
	// Relays is the total relay count (transit hops included).
	Relays int
	// Families spreads the relays over this many operator families.
	Families int
	// Clients issue serve() requests round-robin over the fleet's ready
	// endpoints, failing over within a request.
	Clients int
	// RequestGap is each client's virtual pause between requests.
	RequestGap time.Duration
	// FileSize is the content size served per request.
	FileSize int

	// CrashRelay permanently crashes one replica's relay host.
	CrashRelay bool
	// Partition cuts one replica's relay off from every other host for
	// PartitionFor, then heals. The replica keeps running behind the
	// partition; the controller must not end up with duplicates.
	Partition    bool
	PartitionFor time.Duration
	// CrashLoop kills one replica's interpreter repeatedly until the
	// node's restart-storm guard declares it permanently failed and the
	// controller replaces it.
	CrashLoop bool
	// Tail is the converged quiet period measured after the last fault.
	Tail time.Duration

	ClockScale float64
	Seed       int64
	// Obs, when non-nil, attaches live telemetry to the deployment (the
	// controller's fleet.* metrics land there too).
	Obs *obs.Registry
}

// DefaultFleetBenchConfig is the quick configuration: a 3-replica fleet
// on 5 Bento nodes in 5 families, 6 clients, all three faults.
func DefaultFleetBenchConfig() FleetBenchConfig {
	return FleetBenchConfig{
		Replicas:   3,
		BentoNodes: 5,
		Relays:     9,
		Families:   5,
		Clients:    6,
		RequestGap: 120 * time.Millisecond,
		FileSize:   8 << 10,
		CrashRelay: true,
		Partition:  true,
		// Detection needs two stalled probes (the controller's failure
		// threshold, ~5 s op deadline each); a partition shorter than
		// that window is — correctly — ridden out without any
		// reconciliation.
		PartitionFor: 15 * time.Second,
		CrashLoop:    true,
		Tail:         3 * time.Second,
		ClockScale:   0.02,
		Seed:         7,
	}
}

// FaultRecovery is one fault's reconvergence measurement, in virtual time.
type FaultRecovery struct {
	Fault      string        `json:"fault"`
	InjectedAt time.Duration `json:"injected_at"`
	RecoveryMs int64         `json:"recovery_ms"` // injection to reconverged
}

// FleetBenchResult is the machine-readable outcome.
type FleetBenchResult struct {
	Config            FleetBenchConfig `json:"config"`
	InitialConvergeMs int64            `json:"initial_converge_ms"`
	Recoveries        []FaultRecovery  `json:"recoveries"`

	Requests               int64   `json:"requests"`
	Failures               int64   `json:"failures"` // app-visible: all endpoints failed
	FailuresWhileConverged int64   `json:"failures_while_converged"`
	SuccessRate            float64 `json:"success_rate"`
	FinalReady             int     `json:"final_ready"`
	FinalOrphans           int     `json:"final_orphans"`
}

// WriteJSONFile records the result machine-readably so the robustness
// trajectory across PRs can be tracked.
func (r *FleetBenchResult) WriteJSONFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	return os.WriteFile(path, blob, 0o644)
}

// String renders the experiment summary.
func (r *FleetBenchResult) String() string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "Fleet reconciliation: %d replicas on %d Bento nodes (%d families), %d clients\n",
		cfg.Replicas, cfg.BentoNodes, cfg.Families, cfg.Clients)
	fmt.Fprintf(&b, "initial convergence: %d ms virtual\n", r.InitialConvergeMs)
	b.WriteString("fault        injected-at  reconverge(ms)\n")
	for _, rec := range r.Recoveries {
		fmt.Fprintf(&b, "%-12s %11s  %14d\n", rec.Fault, rec.InjectedAt, rec.RecoveryMs)
	}
	fmt.Fprintf(&b, "requests: %d total, %d failed (%.2f%% success), %d failed while fleet reported converged\n",
		r.Requests, r.Failures, r.SuccessRate*100, r.FailuresWhileConverged)
	fmt.Fprintf(&b, "final state: %d/%d ready, %d orphans\n", r.FinalReady, cfg.Replicas, r.FinalOrphans)
	return b.String()
}

// fleetBenchSource mirrors the chaos replica: content in the container
// filesystem (survives watchdog restarts), served back per request, plus
// a health endpoint for the controller.
const fleetBenchSource = `
def setup(content):
    fs.write("content", content)
    return 1

def serve():
    api.send(fs.read("content"))
    return 1

def health():
    fs.read("content")
    return 1
`

// RunFleetBench runs the experiment: converge, inject faults one at a
// time, measure each reconvergence and the client-visible error rate.
func RunFleetBench(cfg FleetBenchConfig) (*FleetBenchResult, error) {
	if cfg.Replicas < 1 || cfg.BentoNodes <= cfg.Replicas || cfg.Clients < 1 {
		return nil, fmt.Errorf("bench: bad fleet config %+v (need BentoNodes > Replicas)", cfg)
	}
	w, err := testbed.New(testbed.Config{
		Relays:     cfg.Relays,
		BentoNodes: cfg.BentoNodes,
		Families:   cfg.Families,
		ClockScale: cfg.ClockScale,
		Obs:        cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	clock := w.Clock()
	ch := w.EnableChaos(cfg.Seed)

	content := make([]byte, cfg.FileSize)
	for i := range content {
		content[i] = byte(i * 13)
	}

	ctl, err := w.NewFleetController("fleet-ctl", fleet.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	spec := &fleet.Spec{
		Name:     "bench-fleet",
		Replicas: cfg.Replicas,
		Manifest: &policy.Manifest{
			Name:         "fleet-replica",
			Image:        "python",
			Calls:        []string{"tor.send", "fs.read", "fs.write"},
			Memory:       8 << 20,
			Instructions: 5_000_000,
			Storage:      8 << 20,
			Restart:      policy.RestartOnFailure,
		},
		Source:   fleetBenchSource,
		HealthFn: "health",
		Init: func(fn *bento.SessionFunction) error {
			_, _, err := fn.Invoke("setup", interp.Bytes(content))
			return err
		},
	}

	res := &FleetBenchResult{Config: cfg}
	t0 := clock.Now()
	if err := ctl.Apply(spec); err != nil {
		return nil, err
	}
	if err := ctl.WaitConverged(120 * time.Second); err != nil {
		return nil, err
	}
	res.InitialConvergeMs = (clock.Now() - t0).Milliseconds()

	// The client fleet: each request fails over across the fleet's ready
	// endpoints; only a request no endpoint could serve is app-visible.
	type clientRec struct {
		requests, failures, failuresConverged int64
	}
	recs := make([]clientRec, cfg.Clients)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		cli := w.NewBentoClient(fmt.Sprintf("fleet-client%d", i), cfg.Seed+int64(i)*31)
		wg.Add(1)
		go func(i int, cli *bento.Client) {
			defer wg.Done()
			rec := &recs[i]
			fc := newFailoverClient(cli, ctl, i, cfg.Seed+int64(i))
			defer fc.close()
			for {
				select {
				case <-done:
					return
				default:
				}
				convergedAtStart := ctl.Converged()
				rec.requests++
				ok := fc.do(func(fn *bento.SessionFunction) bool {
					out, _, err := fn.Invoke("serve")
					return err == nil && bytes.Equal(out, content)
				})
				if !ok {
					rec.failures++
					if convergedAtStart && ctl.Converged() {
						rec.failuresConverged++
					}
				}
				clock.Sleep(cfg.RequestGap)
			}
		}(i, cli)
	}

	// endpointNode reports whether any current slot sits on the node.
	onNode := func(nick string) bool {
		for _, s := range ctl.Status().Slots {
			if s.Node == nick {
				return true
			}
		}
		return false
	}
	waitRecovered := func(fault string, injected time.Duration, okFn func() bool) error {
		deadline := clock.Now() + 180*time.Second
		for clock.Now() < deadline {
			if okFn() {
				res.Recoveries = append(res.Recoveries, FaultRecovery{
					Fault:      fault,
					InjectedAt: injected,
					RecoveryMs: (clock.Now() - injected).Milliseconds(),
				})
				return nil
			}
			clock.Sleep(100 * time.Millisecond)
		}
		return fmt.Errorf("bench: fleet did not recover from %s within 180s virtual", fault)
	}
	serverFor := func(nick string) int {
		for i := 0; i < cfg.BentoNodes; i++ {
			if w.BentoNode(i) != nil && w.BentoNode(i).Nickname == nick {
				return i
			}
		}
		return -1
	}

	// Fault 1: permanently crash one replica's relay host. The controller
	// must place a replacement on a spare node.
	if cfg.CrashRelay {
		victim := ctl.Endpoints()[0].Node.Nickname
		injected := clock.Now()
		ch.CrashHost(victim)
		// The directory authority notices the dead relay and drops it
		// from the next consensus, as Tor's dirauths would.
		w.Auth.Remove(victim)
		if err := waitRecovered("relay-crash", injected, func() bool {
			return ctl.Converged() && !onNode(victim)
		}); err != nil {
			return nil, err
		}
	}

	// Fault 2: cut one replica's relay off from every other host, then
	// heal. Depending on spare capacity the controller either moves the
	// replica or re-adopts the survivor; either way it must reconverge
	// with no duplicates (orphans drained).
	if cfg.Partition && cfg.PartitionFor > 0 {
		victim := ctl.Endpoints()[0].Node.Nickname
		injected := clock.Now()
		var hosts []string
		for i := 0; i < cfg.Relays; i++ {
			hosts = append(hosts, fmt.Sprintf("relay%d", i))
		}
		hosts = append(hosts, "fleet-ctl")
		for i := 0; i < cfg.Clients; i++ {
			hosts = append(hosts, fmt.Sprintf("fleet-client%d", i))
		}
		for _, h := range hosts {
			if h != victim {
				ch.Partition(victim, h)
				ch.Partition(h, victim)
			}
		}
		go func() {
			clock.Sleep(cfg.PartitionFor)
			ch.HealAll()
		}()
		// Two-phase: the controller must first notice (fleet diverges),
		// then reconverge with the orphan bookkeeping drained — the
		// no-duplicates invariant.
		detectBy := clock.Now() + 60*time.Second
		for ctl.Converged() && clock.Now() < detectBy {
			clock.Sleep(50 * time.Millisecond)
		}
		if ctl.Converged() {
			return nil, fmt.Errorf("bench: controller never noticed the partition")
		}
		if err := waitRecovered("partition", injected, func() bool {
			st := ctl.Status()
			return st.Converged && st.Orphans == 0
		}); err != nil {
			return nil, err
		}
	}

	// Fault 3: crash-loop one replica until the node's restart-storm
	// guard perm-fails it; the controller must read the signal and
	// replace the replica.
	if cfg.CrashLoop {
		victim := ctl.Endpoints()[0]
		srv := serverFor(victim.Node.Nickname)
		if srv < 0 {
			return nil, fmt.Errorf("bench: crash-loop victim %s not a bento node", victim.Node.Nickname)
		}
		injected := clock.Now()
		go func() {
			for i := 0; i < 60 && onNode(victim.Node.Nickname); i++ {
				w.Servers[srv].KillFunction(victim.InvokeToken)
				clock.Sleep(400 * time.Millisecond)
			}
		}()
		if err := waitRecovered("crash-loop", injected, func() bool {
			return ctl.Converged() && !onNode(victim.Node.Nickname)
		}); err != nil {
			return nil, err
		}
	}

	// Quiet tail: the converged steady state, where the error target is
	// strictly zero.
	if cfg.Tail > 0 {
		clock.Sleep(cfg.Tail)
	}
	close(done)
	wg.Wait()

	for i := range recs {
		res.Requests += recs[i].requests
		res.Failures += recs[i].failures
		res.FailuresWhileConverged += recs[i].failuresConverged
	}
	if res.Requests > 0 {
		res.SuccessRate = 1 - float64(res.Failures)/float64(res.Requests)
	}
	st := ctl.Status()
	res.FinalReady = st.Ready
	res.FinalOrphans = st.Orphans
	return res, nil
}

// failoverClient is one load-generating client of a fleet: each request
// goes round-robin over the fleet's ready endpoints and fails over to the
// next until one serves it. It keeps one session per endpoint and drops
// it when a request through it fails, since the endpoint may be gone for
// good and a fresh session re-dials.
type failoverClient struct {
	cli      *bento.Client
	ctl      *fleet.Controller
	rr       int // round-robin cursor
	seed     int64
	sessions map[string]*bento.Session // by invoke token
}

// newFailoverClient starts the cursor at rr, so clients numbered in
// order stagger their first endpoint; seed seeds every session.
func newFailoverClient(cli *bento.Client, ctl *fleet.Controller, rr int, seed int64) *failoverClient {
	return &failoverClient{cli: cli, ctl: ctl, rr: rr, seed: seed, sessions: make(map[string]*bento.Session)}
}

// do runs one request: serve is tried on each ready endpoint in turn,
// from the cursor on, until it reports success. do reports whether any
// endpoint served the request.
func (c *failoverClient) do(serve func(fn *bento.SessionFunction) bool) bool {
	eps := c.ctl.Endpoints()
	ok := false
	for try := 0; try < len(eps) && !ok; try++ {
		ep := eps[(c.rr+try)%len(eps)]
		sess := c.sessions[ep.InvokeToken]
		if sess == nil {
			sess = c.cli.NewSession(ep.Node, bento.SessionConfig{
				MaxAttempts: 2,
				BaseBackoff: 100 * time.Millisecond,
				MaxBackoff:  500 * time.Millisecond,
				OpDeadline:  5 * time.Second,
				Seed:        c.seed,
			})
			c.sessions[ep.InvokeToken] = sess
		}
		if ok = serve(sess.Attach(ep.InvokeToken)); !ok {
			sess.Close()
			delete(c.sessions, ep.InvokeToken)
		}
	}
	c.rr++
	return ok
}

func (c *failoverClient) close() {
	for _, s := range c.sessions {
		s.Close()
	}
}
