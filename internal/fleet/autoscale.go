package fleet

import (
	"fmt"
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/obs"
)

// Autoscaler closes the obs→control loop: a callback on a Windower's
// ticks steps a Controller's replica count between MinReplicas and
// MaxReplicas from the windowed invoke rate and queue depth. It starts
// no goroutine: each window is evaluated on the tick that produced it,
// so on the event clock every decision is a function of virtual time.
//
// Thrash protection, because chaos-induced blips (a relay crash
// briefly tanks the observed rate, its replacement briefly doubles
// queue depth) must not oscillate the allocator:
//
//   - Hysteresis band: scale up above HighWater per-replica rate,
//     down below LowWater, with LowWater < HighWater so a fleet
//     sitting between the bands is left alone.
//   - Cooldowns: after any action, further ups wait UpCooldown and
//     downs wait DownCooldown (downs get the longer default — adding
//     capacity late is worse than removing it late).
//   - Stability windows: a down additionally requires
//     DownStableWindows consecutive below-band windows, and a
//     converged controller — never shed capacity while the fleet is
//     still healing.
//
// Scaling decisions divide the observed aggregate rate by the
// *desired* count (the last target), not the ready count: during a
// crash-heal, desired stays put while ready dips, so the per-replica
// load the decision sees does not spike from the outage itself.
type Autoscaler struct {
	cfg    AutoscaleConfig
	target scaleTarget
	queue  string // the queue-depth gauge: queueMetric outside tests
	am     asMetrics
	cancel func() // unregisters evaluate from the Windower

	mu        sync.Mutex
	desired   int
	nextUp    time.Duration
	nextDown  time.Duration
	lowStreak int
	actions   []ScaleAction
}

// scaleTarget is the slice of Controller the autoscaler drives;
// narrowed to an interface so unit tests can fake it.
type scaleTarget interface {
	Scale(replicas int) error
	Converged() bool
}

// ScaleAction records one scaling decision for benches and dashboards.
type ScaleAction struct {
	At     time.Duration `json:"at_ns"`
	From   int           `json:"from"`
	To     int           `json:"to"`
	Reason string        `json:"reason"`
}

// queueMetric is the gauge read as aggregate queue depth, and scaleStep
// the replica delta of one action.
const (
	queueMetric = "bento.invoke_queue_depth"
	scaleStep   = 1
)

// AutoscaleConfig tunes an Autoscaler. Durations are virtual.
type AutoscaleConfig struct {
	// Controller is the fleet being scaled. Required (tests may
	// instead drive evaluate directly against a fake).
	Controller *Controller
	// Windower supplies the sampled series. Required.
	Windower *obs.Windower
	// MinReplicas/MaxReplicas bound the fleet size. Required:
	// 1 <= Min <= Max.
	MinReplicas, MaxReplicas int
	// RateMetric names the counter whose windowed per-second rate is
	// the demand signal (default "bento.invokes"; note that the
	// default includes the controller's own health probes — fleets
	// that want a pure app signal should point this at an app-level
	// counter).
	RateMetric string
	// HighWater/LowWater bound the per-replica rate band: above
	// HighWater scales up, below LowWater (for DownStableWindows
	// windows) scales down. Required: 0 < LowWater < HighWater.
	HighWater, LowWater float64
	// QueueHighWater, when > 0, also triggers a scale-up when
	// per-replica queue depth (bento.invoke_queue_depth) exceeds it —
	// latency pressure shows up in the queue before the rate. A queue
	// above QueueHighWater/2 also vetoes scale-downs.
	QueueHighWater float64
	// UpCooldown/DownCooldown gate successive actions (defaults 1x /
	// 3x the windower interval, minimum one interval).
	UpCooldown, DownCooldown time.Duration
	// DownStableWindows is how many consecutive below-band windows a
	// down requires (default 2).
	DownStableWindows int
}

func (c *AutoscaleConfig) fill() error {
	if c.Windower == nil {
		return fmt.Errorf("fleet: autoscaler needs a windower")
	}
	if c.MinReplicas < 1 || c.MaxReplicas < c.MinReplicas {
		return fmt.Errorf("fleet: bad autoscale bounds [%d,%d]", c.MinReplicas, c.MaxReplicas)
	}
	if c.HighWater <= 0 || c.LowWater <= 0 || c.LowWater >= c.HighWater {
		return fmt.Errorf("fleet: bad autoscale band low=%v high=%v", c.LowWater, c.HighWater)
	}
	if c.RateMetric == "" {
		c.RateMetric = "bento.invokes"
	}
	iv := c.Windower.Interval()
	if c.UpCooldown <= 0 {
		c.UpCooldown = iv
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 3 * iv
	}
	if c.DownStableWindows <= 0 {
		c.DownStableWindows = 2
	}
	return nil
}

// NewAutoscaler validates cfg, clamps the controller's current desired
// count into [Min,Max], and registers the evaluation as a window
// callback. Close unregisters it (the controller is left at its final
// size).
//
// evaluate runs on the Windower's tick and must not block. It takes only
// the autoscaler's mutex and then the controller's (through Scale and
// Converged), which no goroutine holds across a park.
func NewAutoscaler(cfg AutoscaleConfig) (*Autoscaler, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("fleet: autoscaler needs a controller")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	a := &Autoscaler{
		cfg:    cfg,
		target: cfg.Controller,
		queue:  queueMetric,
		am:     newASMetrics(cfg.Controller.cfg.Client.Tor.Host().Network().Obs()),
	}
	a.desired = min(max(cfg.Controller.Status().Desired, cfg.MinReplicas), cfg.MaxReplicas)
	a.am.target.Set(int64(a.desired))
	if err := a.target.Scale(a.desired); err != nil {
		return nil, err
	}
	a.cancel = cfg.Windower.OnWindow(a.evaluate)
	return a, nil
}

// Close stops the evaluation: no window is evaluated after it returns.
func (a *Autoscaler) Close() { a.cancel() }

// Desired returns the autoscaler's current target replica count.
func (a *Autoscaler) Desired() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.desired
}

// Actions returns a copy of every scaling decision taken so far.
func (a *Autoscaler) Actions() []ScaleAction {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ScaleAction, len(a.actions))
	copy(out, a.actions)
	return out
}

// evaluate applies the hysteresis policy to one window.
func (a *Autoscaler) evaluate(ws *obs.WindowSnapshot) {
	var rate, queue float64
	if st := ws.Find(a.cfg.RateMetric); st != nil {
		rate = st.Rate
	}
	if st := ws.Find(a.queue); st != nil {
		queue = float64(st.Last)
	}
	now := ws.At

	a.mu.Lock()
	defer a.mu.Unlock()
	a.am.evals.Inc()
	cur := a.desired
	perRate := rate / float64(cur)
	perQueue := queue / float64(cur)

	up := perRate > a.cfg.HighWater ||
		(a.cfg.QueueHighWater > 0 && perQueue > a.cfg.QueueHighWater)
	down := perRate < a.cfg.LowWater &&
		(a.cfg.QueueHighWater <= 0 || perQueue <= a.cfg.QueueHighWater/2)

	switch {
	case up:
		a.lowStreak = 0
		if cur >= a.cfg.MaxReplicas {
			return
		}
		if now < a.nextUp {
			a.am.cooldownHolds.Inc()
			return
		}
		n := min(cur+scaleStep, a.cfg.MaxReplicas)
		reason := "rate-high"
		if perRate <= a.cfg.HighWater {
			reason = "queue-high"
		}
		a.scaleLocked(n, now, reason)
	case down:
		if cur <= a.cfg.MinReplicas {
			a.lowStreak = 0
			return
		}
		a.lowStreak++
		if a.lowStreak < a.cfg.DownStableWindows {
			return
		}
		if now < a.nextDown {
			a.am.cooldownHolds.Inc()
			return
		}
		if !a.target.Converged() {
			// Never shed capacity mid-heal: the low rate may be the
			// outage, not the demand.
			a.am.divergedHolds.Inc()
			return
		}
		n := max(cur-scaleStep, a.cfg.MinReplicas)
		a.scaleLocked(n, now, "rate-low")
	default:
		a.lowStreak = 0
	}
}

// scaleLocked commits one action: drives the target, records it, arms
// both cooldowns (an up must also delay the next down, or a ramp's
// trailing edge immediately claws back the capacity it just added).
func (a *Autoscaler) scaleLocked(n int, now time.Duration, reason string) {
	if err := a.target.Scale(n); err != nil {
		a.am.scaleErrors.Inc()
		return
	}
	from := a.desired
	a.desired = n
	a.lowStreak = 0
	a.nextUp = now + a.cfg.UpCooldown
	a.nextDown = now + a.cfg.DownCooldown
	if n > from {
		a.am.ups.Inc()
	} else {
		a.am.downs.Inc()
	}
	a.am.target.Set(int64(n))
	a.actions = append(a.actions, ScaleAction{At: now, From: from, To: n, Reason: reason})
}
