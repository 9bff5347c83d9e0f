package bench

import (
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

// AutoscaleBenchConfig describes the obs-driven autoscaling experiment:
// a fleet starts at MinReplicas under a windowed-telemetry autoscaler,
// client demand ramps RampFactor-times higher, and mid-ramp a replica's
// relay is crashed. Measured: how fast the autoscaler adds capacity
// (virtual lag from ramp start to the first scale-up), whether the
// chaos burst makes it oscillate, whether it sheds the capacity again
// after the ramp ends, and the client-visible error count (target:
// zero, clients fail over).
type AutoscaleBenchConfig struct {
	// MinReplicas/MaxReplicas bound the fleet; it starts at Min.
	MinReplicas, MaxReplicas int
	// BentoNodes > MaxReplicas leaves headroom for chaos replacements.
	BentoNodes int
	// Relays is the total relay count; Families spreads them over
	// operator families for anti-affinity placement.
	Relays   int
	Families int
	// Clients is the baseline client population, each issuing requests
	// with failover across ready endpoints.
	Clients int
	// BaseGap is each client's virtual pause between requests.
	BaseGap time.Duration
	// RampFactor multiplies the client population during the ramp:
	// (RampFactor-1)*Clients extra clients join, then leave again.
	// (Population, not pacing, is what ramps: each client is
	// latency-bound at one in-flight request, so shrinking the gap
	// cannot triple the offered load but tripling the clients can.)
	RampFactor int
	// Warm/Ramp/Tail are the phase lengths (virtual): baseline load,
	// ramped load, then baseline again so the scale-down shows.
	Warm, Ramp, Tail time.Duration

	// Window is the telemetry sampling cadence; the autoscaler
	// evaluates once per window.
	Window time.Duration
	// HighWater/LowWater bound the per-replica rate band on the
	// RateMetric ("app.requests", bumped by the load generator itself
	// so controller health probes do not pollute the demand signal).
	HighWater, LowWater float64
	// QueueHighWater triggers ups on per-replica invoke queue depth.
	QueueHighWater float64
	// UpCooldown/DownCooldown gate successive actions.
	UpCooldown, DownCooldown time.Duration
	// DownStableWindows is how many consecutive low windows a
	// scale-down requires.
	DownStableWindows int

	// CrashDuringRamp crashes one replica's relay host mid-ramp (and
	// drops it from the consensus) while demand is high.
	CrashDuringRamp bool

	ClockScale float64
	Seed       int64
	// Obs overrides the telemetry registry (default: a fresh one; the
	// experiment cannot run unobserved — the control loop is the
	// telemetry consumer).
	Obs *obs.Registry
}

// DefaultAutoscaleBenchConfig is the quick configuration: 2..5 replicas
// on 7 Bento nodes, 6 clients ramping 3x, one mid-ramp relay crash.
func DefaultAutoscaleBenchConfig() AutoscaleBenchConfig {
	return AutoscaleBenchConfig{
		MinReplicas: 2,
		MaxReplicas: 5,
		BentoNodes:  7,
		Relays:      10,
		Families:    7,
		Clients:     6,
		BaseGap:     300 * time.Millisecond,
		RampFactor:  3,
		Warm:        8 * time.Second,
		Ramp:        25 * time.Second,
		Tail:        30 * time.Second,

		Window: time.Second,
		// Each client sustains ~2 req/s (300ms gap + ~200ms invoke
		// round trip), so the base population offers ~12/s and the 3x
		// ramp ~36/s. The band must give both loads a stable replica
		// count: 12/s sits at the 2-replica floor (6/replica, at the
		// band edge but pinned), and 36/s equilibrates at 3-4 replicas
		// (9-12/replica, inside the band) — with enough margin that
		// rate jitter and the crash-failover dip do not brush either
		// watermark at the peak.
		HighWater:         12,
		LowWater:          6,
		QueueHighWater:    6,
		UpCooldown:        2 * time.Second,
		DownCooldown:      4 * time.Second,
		DownStableWindows: 2,

		CrashDuringRamp: true,
		ClockScale:      0.02,
		Seed:            11,
	}
}

// ReplicaPoint is one telemetry window of the experiment timeline.
type ReplicaPoint struct {
	AtMs       int64   `json:"at_ms"`       // virtual time
	Desired    int     `json:"desired"`     // autoscaler target
	Ready      int     `json:"ready"`       // controller-reported ready replicas
	InvokeRate float64 `json:"invoke_rate"` // app.requests, req/s over the window tick
	QueueDepth int64   `json:"queue_depth"` // aggregate bento.invoke_queue_depth
	P95Ns      int64   `json:"p95_ns"`      // windowed bento.invoke_ns p95
}

// AutoscaleBenchResult is the machine-readable outcome.
type AutoscaleBenchResult struct {
	Config   AutoscaleBenchConfig `json:"config"`
	Timeline []ReplicaPoint       `json:"timeline"`
	Actions  []fleet.ScaleAction  `json:"actions"`

	// UpLagMs is virtual time from ramp start to the first scale-up.
	UpLagMs int64 `json:"up_lag_ms"`
	// MaxDesired is the replica-count high-water mark.
	MaxDesired int `json:"max_desired"`
	// FinalDesired must return to MinReplicas after the tail.
	FinalDesired int `json:"final_desired"`
	FinalReady   int `json:"final_ready"`
	// OscillationsDuringCrash counts scaling direction reversals inside
	// the chaos burst window (target: <= 1).
	OscillationsDuringCrash int `json:"oscillations_during_crash"`

	Requests    int64   `json:"requests"`
	Failures    int64   `json:"failures"` // app-visible: all endpoints failed
	SuccessRate float64 `json:"success_rate"`
}

// WriteJSONFile records the result machine-readably so the autoscaling
// trajectory across PRs can be tracked.
func (r *AutoscaleBenchResult) WriteJSONFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	return os.WriteFile(path, blob, 0o644)
}

// String renders the experiment summary.
func (r *AutoscaleBenchResult) String() string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "Fleet autoscaling: replicas %d..%d on %d Bento nodes, %d clients, %dx ramp\n",
		cfg.MinReplicas, cfg.MaxReplicas, cfg.BentoNodes, cfg.Clients, cfg.RampFactor)
	fmt.Fprintf(&b, "scale-up lag after ramp: %d ms virtual (window %v); peak desired %d; final %d/%d ready\n",
		r.UpLagMs, cfg.Window, r.MaxDesired, r.FinalReady, r.FinalDesired)
	b.WriteString("actions:\n")
	for _, a := range r.Actions {
		fmt.Fprintf(&b, "  %8dms  %d -> %d  (%s)\n", a.At.Milliseconds(), a.From, a.To, a.Reason)
	}
	fmt.Fprintf(&b, "oscillations during crash burst: %d\n", r.OscillationsDuringCrash)
	fmt.Fprintf(&b, "requests: %d total, %d failed (%.2f%% success)\n",
		r.Requests, r.Failures, r.SuccessRate*100)
	return b.String()
}

// autoscaleBenchSource is the replica body: a trivial serve() plus the
// controller's health endpoint.
const autoscaleBenchSource = `
def serve(x):
    return x + 1

def health():
    return 1
`

// RunAutoscale runs the experiment: converge at MinReplicas, ramp the
// load RampFactor-times, crash a replica mid-ramp, drop back to the
// base load, and check the autoscaler tracked the demand curve without
// thrashing.
func RunAutoscale(cfg AutoscaleBenchConfig) (*AutoscaleBenchResult, error) {
	if cfg.MinReplicas < 1 || cfg.MaxReplicas < cfg.MinReplicas ||
		cfg.BentoNodes <= cfg.MaxReplicas || cfg.Clients < 1 || cfg.RampFactor < 2 {
		return nil, fmt.Errorf("bench: bad autoscale config %+v (need BentoNodes > MaxReplicas, RampFactor >= 2)", cfg)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	w, err := testbed.New(testbed.Config{
		Relays:     cfg.Relays,
		BentoNodes: cfg.BentoNodes,
		Families:   cfg.Families,
		ClockScale: cfg.ClockScale,
		Obs:        reg,
		ObsWindow:  cfg.Window,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	clock := w.Clock()
	ch := w.EnableChaos(cfg.Seed)

	// The demand signal: bumped by the load generator per successful
	// request, so the autoscaler sees pure app traffic — the
	// controller's own health probes never feed back into scaling.
	appReq := reg.Counter("app.requests")

	ctl, err := w.NewFleetController("autoscale-ctl", fleet.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	spec := &fleet.Spec{
		Name:     "autoscale-fleet",
		Replicas: cfg.MinReplicas,
		Manifest: &policy.Manifest{
			Name:         "autoscale-replica",
			Image:        "python",
			Memory:       8 << 20,
			Instructions: 5_000_000,
			Restart:      policy.RestartOnFailure,
		},
		Source:   autoscaleBenchSource,
		HealthFn: "health",
	}
	if err := ctl.Apply(spec); err != nil {
		return nil, err
	}
	if err := ctl.WaitConverged(120 * time.Second); err != nil {
		return nil, err
	}

	as, err := fleet.NewAutoscaler(fleet.AutoscaleConfig{
		Controller:        ctl,
		Windower:          w.Windower(),
		MinReplicas:       cfg.MinReplicas,
		MaxReplicas:       cfg.MaxReplicas,
		RateMetric:        "app.requests",
		HighWater:         cfg.HighWater,
		LowWater:          cfg.LowWater,
		QueueHighWater:    cfg.QueueHighWater,
		UpCooldown:        cfg.UpCooldown,
		DownCooldown:      cfg.DownCooldown,
		DownStableWindows: cfg.DownStableWindows,
	})
	if err != nil {
		return nil, err
	}
	defer as.Close()

	// The recorder: one timeline point per telemetry window, taken on
	// the window's tick right after the autoscaler (registered first)
	// has evaluated it.
	res := &AutoscaleBenchResult{Config: cfg}
	stopRec := w.Windower().OnWindow(func(ws *obs.WindowSnapshot) {
		pt := ReplicaPoint{
			AtMs:    ws.At.Milliseconds(),
			Desired: as.Desired(),
			Ready:   ctl.Status().Ready,
		}
		if st := ws.Find("app.requests"); st != nil {
			pt.InvokeRate = st.Rate
		}
		if st := ws.Find("bento.invoke_queue_depth"); st != nil {
			pt.QueueDepth = st.Last
		}
		if st := ws.Find("bento.invoke_ns"); st != nil {
			pt.P95Ns = st.P95
		}
		res.Timeline = append(res.Timeline, pt)
	})

	// The client fleet: the base population runs the whole experiment;
	// the ramp population primes one request during the warm phase (so
	// its sessions and circuits are built), parks until the ramp opens,
	// and leaves when it closes. Every request fails over across the
	// fleet's ready endpoints.
	total := cfg.Clients * cfg.RampFactor
	type clientRec struct{ requests, failures int64 }
	recs := make([]clientRec, total)
	done := make(chan struct{})
	rampGo := make(chan struct{})
	rampEnd := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		cli := w.NewBentoClient(fmt.Sprintf("autoscale-client%d", i), cfg.Seed+int64(i)*31)
		wg.Add(1)
		go func(i int, cli *bento.Client) {
			defer wg.Done()
			rec := &recs[i]
			fc := newFailoverClient(cli, ctl, i, cfg.Seed+int64(i))
			defer fc.close()
			request := func() {
				rec.requests++
				arg := interp.Int(rec.requests)
				ok := fc.do(func(fn *bento.SessionFunction) bool {
					_, out, err := fn.Invoke("serve", arg)
					return err == nil && out == arg+1
				})
				if ok {
					appReq.Inc()
				} else {
					rec.failures++
				}
			}
			var stop chan struct{}
			if i >= cfg.Clients {
				// Ramp client: prime a session to every current
				// endpoint (request() rotates the round-robin start, so
				// one request per endpoint covers them all), park, join
				// on rampGo, leave on rampEnd. Warm sessions mean the
				// surge is visible to the sampler within one round
				// trip of the ramp opening.
				for range ctl.Endpoints() {
					request()
				}
				select {
				case <-done:
					return
				case <-rampGo:
				}
				stop = rampEnd
			}
			for {
				select {
				case <-done:
					return
				case <-stop:
					return
				default:
				}
				request()
				clock.Sleep(cfg.BaseGap)
			}
		}(i, cli)
	}

	// Phase 1: warm at the base load.
	clock.Sleep(cfg.Warm)

	// Phase 2: the ramp. The offered load jumps RampFactor-fold as the
	// parked clients join at once.
	rampStart := clock.Now()
	close(rampGo)

	// Mid-ramp chaos: crash one replica's relay while demand is high,
	// and let the directory authority drop it from the consensus. The
	// controller replaces the replica; the autoscaler must not flap.
	var crashAt time.Duration
	if cfg.CrashDuringRamp {
		clock.Sleep(cfg.Ramp / 2)
		eps := ctl.Endpoints()
		if len(eps) == 0 {
			return nil, fmt.Errorf("bench: no endpoints to crash")
		}
		victim := eps[0].Node.Nickname
		crashAt = clock.Now()
		ch.CrashHost(victim)
		w.Auth.Remove(victim)
		clock.Sleep(cfg.Ramp - cfg.Ramp/2)
	} else {
		clock.Sleep(cfg.Ramp)
	}

	// Phase 3: the tail. The ramp population leaves; the autoscaler
	// must walk the fleet back down to MinReplicas.
	close(rampEnd)
	clock.Sleep(cfg.Tail)

	close(done)
	wg.Wait()
	stopRec()

	for i := range recs {
		res.Requests += recs[i].requests
		res.Failures += recs[i].failures
	}
	if res.Requests > 0 {
		res.SuccessRate = 1 - float64(res.Failures)/float64(res.Requests)
	}
	res.Actions = as.Actions()
	res.FinalDesired = as.Desired()
	st := ctl.Status()
	res.FinalReady = st.Ready
	res.MaxDesired = cfg.MinReplicas
	for _, a := range res.Actions {
		if a.To > res.MaxDesired {
			res.MaxDesired = a.To
		}
	}

	// Scale-up lag: ramp start to the first up action.
	res.UpLagMs = -1
	for _, a := range res.Actions {
		if a.At >= rampStart && a.To > a.From {
			res.UpLagMs = (a.At - rampStart).Milliseconds()
			break
		}
	}
	// Oscillations inside the chaos burst: direction reversals among
	// actions in [crashAt, crashAt + DownCooldown].
	if cfg.CrashDuringRamp {
		dir := 0
		for _, a := range res.Actions {
			if a.At < crashAt || a.At > crashAt+cfg.DownCooldown {
				continue
			}
			d := 1
			if a.To < a.From {
				d = -1
			}
			if dir != 0 && d != dir {
				res.OscillationsDuringCrash++
			}
			dir = d
		}
	}

	// The acceptance gates, as errors so harness smokes are real gates:
	// scale up within two windows of the ramp (one to sample the surge,
	// one of slack for tick phase), no app-visible errors, at most one
	// oscillation under chaos, and back at the floor after the tail.
	if res.UpLagMs < 0 || res.UpLagMs > (2*cfg.Window).Milliseconds() {
		return res, fmt.Errorf("bench: scale-up lag %d ms exceeds 2 windows (%v)", res.UpLagMs, cfg.Window)
	}
	if res.Failures > 0 {
		return res, fmt.Errorf("bench: %d app-visible failures (want 0; clients fail over)", res.Failures)
	}
	if res.OscillationsDuringCrash > 1 {
		return res, fmt.Errorf("bench: %d oscillations during the crash burst (want <= 1)", res.OscillationsDuringCrash)
	}
	if res.FinalDesired != cfg.MinReplicas {
		return res, fmt.Errorf("bench: final desired %d, want MinReplicas %d", res.FinalDesired, cfg.MinReplicas)
	}
	return res, nil
}
