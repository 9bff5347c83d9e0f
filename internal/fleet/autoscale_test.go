package fleet

import (
	"sort"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/obs"
)

// fakeTarget records Scale calls and fakes convergence.
type fakeTarget struct {
	scaled    []int
	converged bool
	err       error
}

func (f *fakeTarget) Scale(n int) error {
	if f.err != nil {
		return f.err
	}
	f.scaled = append(f.scaled, n)
	return nil
}

func (f *fakeTarget) Converged() bool { return f.converged }

// newTestAutoscaler builds an autoscaler around a fake target without
// a controller or windower; tests feed evaluate directly.
func newTestAutoscaler(t *testing.T, ft *fakeTarget, cfg AutoscaleConfig) *Autoscaler {
	t.Helper()
	if cfg.RateMetric == "" {
		cfg.RateMetric = "app.rate"
	}
	if cfg.UpCooldown == 0 {
		cfg.UpCooldown = time.Second
	}
	if cfg.DownCooldown == 0 {
		cfg.DownCooldown = 3 * time.Second
	}
	if cfg.DownStableWindows == 0 {
		cfg.DownStableWindows = 2
	}
	a := &Autoscaler{
		cfg:     cfg,
		target:  ft,
		queue:   "app.queue",
		am:      newASMetrics(obs.NewRegistry()),
		desired: cfg.MinReplicas,
	}
	return a
}

// window builds a synthetic WindowSnapshot with the given rate and
// queue series at virtual time at.
func window(at time.Duration, rateName string, rate float64, queueName string, queue int64) *obs.WindowSnapshot {
	ws := &obs.WindowSnapshot{
		At: at,
		Series: []obs.SeriesStat{
			{Name: rateName, Kind: "counter", Rate: rate},
			{Name: queueName, Kind: "gauge", Last: queue},
		},
	}
	sort.Slice(ws.Series, func(i, j int) bool { return ws.Series[i].Name < ws.Series[j].Name })
	return ws
}

func TestAutoscalerScalesUpOnRate(t *testing.T) {
	ft := &fakeTarget{converged: true}
	a := newTestAutoscaler(t, ft, AutoscaleConfig{
		MinReplicas: 2, MaxReplicas: 5,
		HighWater: 10, LowWater: 4,
	})
	// 2 replicas, 30/s aggregate → 15/replica > 10: up.
	a.evaluate(window(1*time.Second, "app.rate", 30, "app.queue", 0))
	if a.Desired() != 3 {
		t.Fatalf("desired = %d, want 3", a.Desired())
	}
	// Cooldown (1s) holds the next step.
	a.evaluate(window(1500*time.Millisecond, "app.rate", 30, "app.queue", 0))
	if a.Desired() != 3 {
		t.Fatalf("cooldown ignored: desired = %d", a.Desired())
	}
	// After cooldown, keeps stepping to the max, then pins.
	a.evaluate(window(2100*time.Millisecond, "app.rate", 60, "app.queue", 0))
	a.evaluate(window(3200*time.Millisecond, "app.rate", 60, "app.queue", 0))
	a.evaluate(window(4300*time.Millisecond, "app.rate", 90, "app.queue", 0))
	a.evaluate(window(5400*time.Millisecond, "app.rate", 90, "app.queue", 0))
	if a.Desired() != 5 {
		t.Fatalf("desired = %d, want max 5", a.Desired())
	}
	acts := a.Actions()
	if len(acts) != 3 {
		t.Fatalf("actions = %+v", acts)
	}
	for _, act := range acts {
		if act.To != act.From+1 || act.Reason != "rate-high" {
			t.Fatalf("bad action %+v", act)
		}
	}
}

func TestAutoscalerQueueTriggersUp(t *testing.T) {
	ft := &fakeTarget{converged: true}
	a := newTestAutoscaler(t, ft, AutoscaleConfig{
		MinReplicas: 2, MaxReplicas: 4,
		HighWater: 10, LowWater: 4, QueueHighWater: 3,
	})
	// Rate inside the band, but 8 queued on 2 replicas → 4/replica > 3.
	a.evaluate(window(1*time.Second, "app.rate", 12, "app.queue", 8))
	if a.Desired() != 3 {
		t.Fatalf("desired = %d, want 3 (queue pressure)", a.Desired())
	}
	if got := a.Actions(); len(got) != 1 || got[0].Reason != "queue-high" {
		t.Fatalf("actions = %+v", got)
	}
}

func TestAutoscalerDownNeedsStreakCooldownAndConvergence(t *testing.T) {
	ft := &fakeTarget{converged: false}
	a := newTestAutoscaler(t, ft, AutoscaleConfig{
		MinReplicas: 1, MaxReplicas: 5,
		HighWater: 10, LowWater: 4,
		DownStableWindows: 2,
	})
	a.desired = 3

	// One low window is a blip, not a trend.
	a.evaluate(window(1*time.Second, "app.rate", 3, "app.queue", 0))
	if a.Desired() != 3 {
		t.Fatalf("scaled down on a single low window")
	}
	// Second low window completes the streak — but the fleet is not
	// converged, so the down is held.
	a.evaluate(window(2*time.Second, "app.rate", 3, "app.queue", 0))
	if a.Desired() != 3 {
		t.Fatalf("scaled down while unconverged")
	}
	if a.am.divergedHolds.Value() != 1 {
		t.Fatalf("divergedHolds = %d", a.am.divergedHolds.Value())
	}
	// Converged: the next completed streak scales down.
	ft.converged = true
	a.evaluate(window(3*time.Second, "app.rate", 3, "app.queue", 0))
	if a.Desired() != 2 {
		t.Fatalf("desired = %d, want 2", a.Desired())
	}
	// An interleaved in-band window resets the streak.
	a.evaluate(window(4*time.Second, "app.rate", 15, "app.queue", 0)) // 7.5/replica: in band
	a.evaluate(window(10*time.Second, "app.rate", 3, "app.queue", 0))
	if a.Desired() != 2 {
		t.Fatalf("streak not reset by in-band window")
	}
	a.evaluate(window(11*time.Second, "app.rate", 3, "app.queue", 0))
	if a.Desired() != 1 {
		t.Fatalf("desired = %d, want 1", a.Desired())
	}
	// Pinned at the floor.
	a.evaluate(window(20*time.Second, "app.rate", 0, "app.queue", 0))
	a.evaluate(window(21*time.Second, "app.rate", 0, "app.queue", 0))
	if a.Desired() != 1 {
		t.Fatalf("scaled below MinReplicas")
	}
}

func TestAutoscalerDownCooldownAfterUp(t *testing.T) {
	ft := &fakeTarget{converged: true}
	a := newTestAutoscaler(t, ft, AutoscaleConfig{
		MinReplicas: 1, MaxReplicas: 5,
		HighWater: 10, LowWater: 4,
		UpCooldown: time.Second, DownCooldown: 10 * time.Second,
		DownStableWindows: 1,
	})
	a.desired = 2
	// Up at t=1s arms the down cooldown until t=11s: a chaos blip
	// that tanks the rate right after must not claw the step back.
	a.evaluate(window(1*time.Second, "app.rate", 30, "app.queue", 0))
	if a.Desired() != 3 {
		t.Fatalf("desired = %d", a.Desired())
	}
	a.evaluate(window(2*time.Second, "app.rate", 2, "app.queue", 0))
	a.evaluate(window(3*time.Second, "app.rate", 2, "app.queue", 0))
	if a.Desired() != 3 {
		t.Fatalf("down during post-up cooldown: %d", a.Desired())
	}
	if a.am.cooldownHolds.Value() == 0 {
		t.Fatal("cooldown holds not counted")
	}
	// Past the cooldown the trend is honored.
	a.evaluate(window(12*time.Second, "app.rate", 2, "app.queue", 0))
	if a.Desired() != 2 {
		t.Fatalf("desired = %d, want 2", a.Desired())
	}
}

func TestAutoscalerHysteresisBandIsQuiet(t *testing.T) {
	ft := &fakeTarget{converged: true}
	a := newTestAutoscaler(t, ft, AutoscaleConfig{
		MinReplicas: 1, MaxReplicas: 5,
		HighWater: 10, LowWater: 4,
		DownStableWindows: 1,
	})
	a.desired = 3
	// Rates oscillating inside (LowWater, HighWater) per replica must
	// produce zero actions.
	for i, agg := range []float64{15, 27, 18, 29, 13, 21} { // 4.3..9.7 per replica
		a.evaluate(window(time.Duration(i+1)*10*time.Second, "app.rate", agg, "app.queue", 0))
	}
	if len(a.Actions()) != 0 {
		t.Fatalf("in-band windows caused actions: %+v", a.Actions())
	}
	if a.am.evals.Value() != 6 {
		t.Fatalf("evals = %d", a.am.evals.Value())
	}
}

func TestAutoscalerQueueVetoesDown(t *testing.T) {
	ft := &fakeTarget{converged: true}
	a := newTestAutoscaler(t, ft, AutoscaleConfig{
		MinReplicas: 1, MaxReplicas: 5,
		HighWater: 10, LowWater: 4, QueueHighWater: 4,
		DownStableWindows: 1,
	})
	a.desired = 2
	// Rate is below band but the queue is still loaded: no down.
	a.evaluate(window(5*time.Second, "app.rate", 2, "app.queue", 6)) // 3/replica > QHW/2
	if a.Desired() != 2 {
		t.Fatalf("scaled down with a loaded queue")
	}
	a.evaluate(window(10*time.Second, "app.rate", 2, "app.queue", 0))
	if a.Desired() != 1 {
		t.Fatalf("desired = %d, want 1", a.Desired())
	}
}

func TestAutoscalerConfigValidation(t *testing.T) {
	reg := obs.NewRegistry()
	w := obs.NewWindower(reg, obs.WindowConfig{Interval: time.Hour})
	defer w.Close()
	bad := []AutoscaleConfig{
		{Windower: w, MinReplicas: 0, MaxReplicas: 3, HighWater: 10, LowWater: 4},
		{Windower: w, MinReplicas: 3, MaxReplicas: 2, HighWater: 10, LowWater: 4},
		{Windower: w, MinReplicas: 1, MaxReplicas: 2, HighWater: 4, LowWater: 10},
		{Windower: w, MinReplicas: 1, MaxReplicas: 2, HighWater: 0, LowWater: 0},
		{MinReplicas: 1, MaxReplicas: 2, HighWater: 10, LowWater: 4}, // no windower
	}
	for i := range bad {
		if err := bad[i].fill(); err == nil {
			t.Fatalf("config %d validated unexpectedly: %+v", i, bad[i])
		}
	}
	good := AutoscaleConfig{Windower: w, MinReplicas: 1, MaxReplicas: 4, HighWater: 10, LowWater: 4}
	if err := good.fill(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if good.RateMetric != "bento.invokes" {
		t.Fatalf("defaults not filled: %+v", good)
	}
	if good.UpCooldown != time.Hour || good.DownCooldown != 3*time.Hour {
		t.Fatalf("cooldown defaults should follow the windower interval: %+v", good)
	}
	if _, err := NewAutoscaler(AutoscaleConfig{}); err == nil {
		t.Fatal("NewAutoscaler without a controller should fail")
	}
}
