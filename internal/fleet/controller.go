package fleet

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
)

// Config wires a Controller to the world.
type Config struct {
	// Client drives every control-plane session (spawns, probes,
	// shutdowns). Required. Telemetry goes to its network's registry.
	Client *bento.Client
	// Consensus returns a fresh consensus each reconcile pass — relay
	// liveness as the directory sees it. A node that leaves the
	// consensus is retired immediately. Required.
	Consensus func() (*dirauth.Consensus, error)
	// Seed drives placement choice and backoff jitter (default 1).
	Seed int64
}

// The reconcile loop's timing and thresholds. Durations are virtual.
const (
	// reconcileInterval is the reconcile tick.
	reconcileInterval = 300 * time.Millisecond
	// opDeadline bounds one attempt of one control-plane operation.
	opDeadline = 5 * time.Second
	// failureThreshold consecutive probe failures retire a ready
	// replica. Permanent-failure reports retire it immediately.
	failureThreshold = 2
	// baseBackoff and maxBackoff bound the per-slot requeue backoff
	// after a failed action; the actual wait draws jitter from the
	// controller's seeded RNG.
	baseBackoff = 200 * time.Millisecond
	maxBackoff  = 2 * time.Second
	// breakerThreshold consecutive short-lived placements open a slot's
	// circuit breaker for breakerCooldown. A replica that stays ready
	// for minUptime resets the count: a relay crash after honest
	// service is churn, not poison.
	breakerThreshold = 3
	breakerCooldown  = 15 * time.Second
	minUptime        = 2 * time.Second
	// suspectCooldown is how long a node that ate a replica is avoided
	// by the allocator while alternatives exist.
	suspectCooldown = 5 * time.Second
)

// slot is one replica's reconciliation state. All fields are guarded by
// the controller mutex; the session/function handles are only used by
// action goroutines that own them until a result is delivered.
type slot struct {
	id    int
	phase Phase

	node      *dirauth.Descriptor
	man       *policy.Manifest
	sess      *bento.Session
	fn        *bento.SessionFunction
	invokeTok string

	// incarnation versions this slot's placements; it is part of the
	// spawn idempotency key and bumps only when the previous placement
	// is confirmed dealt with (retired, or orphan-recorded), never on an
	// unknown-fate failure — those must retry under the same key.
	incarnation int
	// unknownFate marks a placement that died with transport-class
	// errors: the server may hold a live function under our key, so the
	// next attempt sticks to the same node (or orphans it when moving).
	unknownFate bool
	srcHash     [sha256.Size]byte

	busy       bool // an action goroutine is in flight
	probeFails int
	readySince time.Duration

	backoff     time.Duration
	nextAttempt time.Duration

	breakerFails     int
	breakerOpenUntil time.Duration
}

// orphan is a possibly-leaked placement: a spawn key that may hold a
// container on a node we could not confirm shutdown with. Reaping
// re-spawns under the same key (adopting the container if it exists,
// creating a throwaway if not) and shuts it down — an idempotent
// ensure-absent.
type orphan struct {
	node        *dirauth.Descriptor
	key         string
	man         *policy.Manifest
	busy        bool
	backoff     time.Duration
	nextAttempt time.Duration
}

// result is an async action's report, folded into slot state by
// handleResult.
type result struct {
	slotID      int
	incarnation int
	gen         uint64
	kind        string // "place" | "upgrade"
	err         error
	unknownFate bool
	sess        *bento.Session
	fn          *bento.SessionFunction
}

// Controller reconciles one fleet Spec against the world. Create with
// New, set desired state with Apply, stop with Close. Closing stops the
// control loop but leaves running replicas in place (the workload
// outlives its controller, as with any supervisor handoff).
type Controller struct {
	cfg   Config
	clock *simnet.Clock
	om    metrics
	alloc *allocator

	// mu guards the fields below. It is never held across a park:
	// every action that can block (probes, spawns, shutdowns, session
	// closes) starts with go and re-locks to report back, and cond.Wait
	// releases it. The autoscaler relies on this, since it takes mu from
	// a window callback on the clock's dispatcher, and so does the tick.
	mu            sync.Mutex
	cond          *simnet.Cond // on mu: kicked, closed, running, or a probe finished
	kicked        bool         // the loop owes a reconcile pass
	running       bool         // the loop has not exited
	spec          *Spec
	srcHash       [sha256.Size]byte
	gen           uint64
	slots         []*slot
	suspects      map[string]time.Duration // nickname -> cooldown expiry
	orphans       []*orphan
	lastConsensus *dirauth.Consensus
	converged     bool
	divergedSince time.Duration
	rng           *rand.Rand
	closed        bool
}

// New creates a controller and starts its reconcile loop. It manages
// nothing until the first Apply.
func New(cfg Config) (*Controller, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("fleet: config needs a client")
	}
	if cfg.Consensus == nil {
		return nil, fmt.Errorf("fleet: config needs a consensus source")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Controller{
		cfg:      cfg,
		clock:    cfg.Client.Tor.Clock(),
		om:       newMetrics(cfg.Client.Tor.Host().Network().Obs()),
		alloc:    newAllocator(cfg.Seed),
		running:  true,
		suspects: make(map[string]time.Duration),
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
	}
	c.cond = simnet.NewCond(c.clock, &c.mu)
	c.clock.Go(c.run)
	return c, nil
}

// Apply sets (or replaces) the fleet's desired state and wakes the
// reconcile loop. Replacing a spec with new Source rolls the upgrade out
// one replica at a time; shrinking Replicas retires the highest slots.
func (c *Controller) Apply(spec *Spec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	c.mu.Lock()
	c.spec = spec
	c.srcHash = spec.sourceHash()
	c.gen++
	for len(c.slots) < spec.Replicas {
		c.slots = append(c.slots, &slot{id: len(c.slots), phase: PhaseEmpty})
	}
	now := c.clock.Now()
	if c.converged || c.gen == 1 {
		c.converged = false
		c.divergedSince = now
	}
	c.mu.Unlock()
	c.kick()
	return nil
}

// Scale changes only the desired replica count, keeping everything
// else about the current spec. Unlike Apply it does NOT bump the spec
// generation: the fleet's identity (name, source, manifest) is
// unchanged, so placements already in flight stay valid instead of
// being discarded as stale — exactly what an autoscaler needs when it
// steps the count again before the previous step converged. Scaling
// down retires the highest slots, same as a shrinking Apply.
func (c *Controller) Scale(replicas int) error {
	if replicas < 1 {
		return fmt.Errorf("fleet: scale to %d replicas", replicas)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("fleet: controller closed")
	}
	if c.spec == nil {
		c.mu.Unlock()
		return fmt.Errorf("fleet: Scale before Apply")
	}
	if c.spec.Replicas == replicas {
		c.mu.Unlock()
		return nil
	}
	// Specs are immutable once applied; clone rather than mutate the
	// one the caller may still hold.
	clone := *c.spec
	clone.Replicas = replicas
	c.spec = &clone
	for len(c.slots) < replicas {
		c.slots = append(c.slots, &slot{id: len(c.slots), phase: PhaseEmpty})
	}
	if c.converged {
		c.converged = false
		c.divergedSince = c.clock.Now()
	}
	c.mu.Unlock()
	c.kick()
	return nil
}

// Close stops the reconcile loop and returns once it has exited, which
// can take the rest of a reconcile pass. Replicas keep running.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	for c.running {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// kick asks the loop for a reconcile pass. The tick calls it from the
// dispatcher: it takes mu only briefly and never blocks.
func (c *Controller) kick() {
	c.mu.Lock()
	c.kicked = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Endpoints returns the ready replicas. The slice is freshly allocated;
// callers may retain it.
func (c *Controller) Endpoints() []Endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Endpoint
	for _, s := range c.slots {
		if s.phase == PhaseReady && s.invokeTok != "" {
			out = append(out, Endpoint{Slot: s.id, Node: s.node, InvokeToken: s.invokeTok})
		}
	}
	return out
}

// Converged reports whether observed state matches the desired spec
// (all replicas ready on the current source).
func (c *Controller) Converged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.converged
}

// Status snapshots the controller's view of the fleet.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Generation: c.gen, Converged: c.converged, Orphans: len(c.orphans)}
	if c.spec != nil {
		st.Name = c.spec.Name
		st.Desired = c.spec.Replicas
	}
	now := c.clock.Now()
	for _, s := range c.slots {
		ss := SlotStatus{
			Slot:        s.id,
			Phase:       s.phase,
			Incarnation: s.incarnation,
			BreakerOpen: now < s.breakerOpenUntil,
		}
		if s.node != nil {
			ss.Node = s.node.Nickname
			ss.Family = s.node.Family()
		}
		st.Slots = append(st.Slots, ss)
		if s.phase == PhaseReady && s.srcHash == c.srcHash {
			st.Ready++
		}
	}
	return st
}

// WaitConverged blocks (in virtual time) until the fleet converges, or
// fails after the given virtual timeout.
func (c *Controller) WaitConverged(timeout time.Duration) error {
	deadline := c.clock.Now() + timeout
	for c.clock.Now() < deadline {
		if c.Converged() {
			return nil
		}
		c.clock.Sleep(50 * time.Millisecond)
	}
	if c.Converged() {
		return nil
	}
	st := c.Status()
	return fmt.Errorf("fleet %s: not converged after %v (%d/%d ready)", st.Name, timeout, st.Ready, st.Desired)
}

// run is the controller loop: reconcile on every tick and kick (an
// Apply, a Scale, an action's result), until Close. The tick is a timer
// that kicks and is stopped as soon as the wait ends, so an early kick
// leaves no timer behind.
func (c *Controller) run() {
	c.mu.Lock()
	for {
		tick := c.clock.AfterFunc(reconcileInterval, c.kick)
		for !c.kicked && !c.closed {
			c.cond.Wait()
		}
		tick.Stop()
		if c.closed {
			break
		}
		c.kicked = false
		c.mu.Unlock()
		c.reconcile()
		c.mu.Lock()
	}
	c.running = false
	c.mu.Unlock()
	c.cond.Broadcast()
}

// controlSession opens a session for one control-plane action. Low
// attempt counts and tight deadlines: the reconcile loop's own backoff
// is the real retry policy, and it must observe failures quickly.
func (c *Controller) controlSession(node *dirauth.Descriptor, seed int64) *bento.Session {
	return c.cfg.Client.NewSession(node, bento.SessionConfig{
		MaxAttempts: 3,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  time.Second,
		OpDeadline:  opDeadline,
		Seed:        seed,
	})
}

// spawnKey derives the deterministic idempotency key for a slot
// incarnation. Retrying the same incarnation replays the same key, so a
// server that already ran the spawn hands back the original tokens.
func spawnKey(fleetName string, slotID, incarnation int) string {
	return fmt.Sprintf("fleet/%s/slot%d/inc%d", fleetName, slotID, incarnation)
}

// reconcile is one control-loop pass: observe, diff, act.
func (c *Controller) reconcile() {
	c.mu.Lock()
	if c.spec == nil || c.closed {
		c.mu.Unlock()
		return
	}
	c.om.loops.Inc()

	// Observe relay liveness: a fresh consensus when the directory
	// answers, else the last one we saw.
	cons := c.lastConsensus
	c.mu.Unlock()
	if fresh, err := c.cfg.Consensus(); err == nil && fresh != nil {
		cons = fresh
	}

	// Observe replica health, in parallel, outside the lock.
	probes := c.collectProbes()
	c.runProbes(probes)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.lastConsensus = cons
	now := c.clock.Now()
	c.pruneSuspectsLocked(now)

	// Apply probe verdicts and consensus evictions.
	inConsensus := make(map[string]bool)
	if cons != nil {
		for _, d := range cons.BentoNodes() {
			inConsensus[d.Nickname] = true
		}
	}
	for i, s := range c.slots {
		if s.busy || s.phase != PhaseReady {
			continue
		}
		if cons != nil && s.node != nil && !inConsensus[s.node.Nickname] {
			c.retireLocked(s, now, false, "left consensus")
			continue
		}
		pr := probes[i]
		if pr == nil {
			continue
		}
		switch {
		case pr.err == nil:
			s.probeFails = 0
			if s.breakerFails > 0 && now-s.readySince >= minUptime {
				s.breakerFails = 0
			}
		case errors.Is(pr.err, bento.ErrPermanentFailure):
			// The node's restart-storm guard gave up on the function:
			// no probe quorum needed, the replica is gone for good.
			c.om.probeFailures.Inc()
			c.retireLocked(s, now, true, "permanent failure")
		case errors.Is(pr.err, bento.ErrTransport):
			// Unreachable ≠ dead: a partition and a crash look the same
			// from here. Suspend the slot — sticky to its node, same
			// incarnation — so a retried spawn key adopts the surviving
			// container instead of duplicating it, while the allocator
			// is still free to move the slot if a fresh node exists.
			c.om.probeFailures.Inc()
			s.probeFails++
			if s.probeFails >= failureThreshold {
				c.suspendLocked(s, now)
			}
		default:
			// The transport works and the replica still fails its health
			// check: the replica itself is bad. Replace it.
			c.om.probeFailures.Inc()
			s.probeFails++
			if s.probeFails >= failureThreshold {
				c.retireLocked(s, now, true, "unhealthy")
			}
		}
	}

	// Retire slots beyond the desired count (spec shrank).
	for _, s := range c.slots[c.spec.Replicas:] {
		if !s.busy && (s.phase == PhaseReady || s.phase == PhaseFailed) && s.node != nil {
			c.retireLocked(s, now, false, "scale down")
		}
	}
	c.slots = c.slots[:max(c.spec.Replicas, len(c.slots))]
	if n := len(c.slots); n > c.spec.Replicas {
		// Drop fully-drained excess slots from the tail.
		for n > c.spec.Replicas && c.slots[n-1].node == nil && !c.slots[n-1].busy {
			n--
		}
		c.slots = c.slots[:n]
	}

	// Converge: place empty/failed slots, roll upgrades one at a time.
	if cons != nil {
		c.planPlacementsLocked(cons, now)
	}
	c.planUpgradeLocked(now)
	c.reapOrphansLocked(now)
	c.updateConvergenceLocked(now)
}

// probeReq carries one health probe; err is filled by runProbes.
type probeReq struct {
	fn       *bento.SessionFunction
	sess     *bento.Session
	healthFn string
	err      error
}

// collectProbes snapshots the ready replicas' handles under the lock.
// The map is keyed by slot index; busy slots are skipped (their action
// goroutine owns the session).
func (c *Controller) collectProbes() map[int]*probeReq {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]*probeReq)
	if c.spec == nil {
		return out
	}
	for i, s := range c.slots {
		if s.busy || s.phase != PhaseReady || s.fn == nil {
			continue
		}
		out[i] = &probeReq{fn: s.fn, sess: s.sess, healthFn: c.spec.HealthFn}
	}
	return out
}

// runProbes executes health probes concurrently and stores each verdict
// back into its request. The count of probes still out is guarded by mu.
func (c *Controller) runProbes(probes map[int]*probeReq) {
	left := len(probes)
	for _, pr := range probes {
		c.clock.Go(func() {
			c.om.probes.Inc()
			if pr.healthFn != "" {
				_, _, pr.err = pr.fn.Invoke(pr.healthFn)
			} else {
				_, pr.err = pr.sess.Policy()
			}
			c.mu.Lock()
			left--
			c.mu.Unlock()
			c.cond.Broadcast()
		})
	}
	c.mu.Lock()
	for left > 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// retireLocked tears a replica down and opens its slot for re-placement.
// suspectNode marks the relay as recently-bad for the allocator. The
// teardown itself (best-effort shutdown, session close) runs async; a
// shutdown we cannot confirm leaves an orphan record for the reaper.
func (c *Controller) retireLocked(s *slot, now time.Duration, poison bool, reason string) {
	c.om.replacements.Inc()
	if s.node != nil {
		c.suspects[s.node.Nickname] = now + suspectCooldown
	}
	sess, fn := s.sess, s.fn
	node, man := s.node, s.man
	key := spawnKey(c.spec.Name, s.id, s.incarnation)
	if fn != nil {
		c.clock.Go(func() {
			err := fn.Shutdown()
			sess.Close()
			if err != nil && !errors.Is(err, bento.ErrSessionClosed) {
				// Fate unknown (node unreachable, most likely): remember
				// the key so the container is reaped when the node heals.
				c.addOrphan(node, key, man)
			}
		})
	} else if sess != nil {
		c.clock.Go(func() { sess.Close() })
	}

	// Short-lived or poisoned replicas count toward the breaker; a
	// replica that served honestly resets it (relay churn, not poison).
	if poison || now-s.readySince < minUptime {
		s.breakerFails++
		if s.breakerFails >= breakerThreshold && now >= s.breakerOpenUntil {
			s.breakerOpenUntil = now + breakerCooldown
			c.om.breakerTrips.Inc()
		}
	} else {
		s.breakerFails = 0
	}

	s.phase = PhaseFailed
	s.node = nil
	s.man = nil
	s.sess = nil
	s.fn = nil
	s.invokeTok = ""
	s.probeFails = 0
	s.unknownFate = false
	s.incarnation++ // the old placement is accounted for (shut down or orphaned)
	c.bumpBackoffLocked(s, now)
}

// suspendLocked is the soft retire for a replica whose node became
// unreachable: the function may well still be running behind a
// partition, so the slot keeps its node (sticky) and incarnation —
// re-placing replays the same spawn key and adopts the survivor — while
// the allocator remains free to move it (orphaning the key) when a
// fresh node exists.
func (c *Controller) suspendLocked(s *slot, now time.Duration) {
	c.om.replacements.Inc()
	if s.node != nil {
		c.suspects[s.node.Nickname] = now + suspectCooldown
	}
	if sess := s.sess; sess != nil {
		c.clock.Go(func() { sess.Close() })
	}
	s.sess = nil
	s.fn = nil
	s.invokeTok = ""
	s.phase = PhaseFailed
	s.unknownFate = true
	s.probeFails = 0
	c.bumpBackoffLocked(s, now)
}

// bumpBackoffLocked schedules the slot's next attempt: bounded
// exponential growth with half-jitter from the seeded RNG.
func (c *Controller) bumpBackoffLocked(s *slot, now time.Duration) {
	if s.backoff <= 0 {
		s.backoff = baseBackoff
	} else if s.backoff < maxBackoff {
		s.backoff = min(s.backoff*2, maxBackoff)
	}
	wait := s.backoff/2 + time.Duration(c.rng.Int63n(int64(s.backoff/2)+1))
	s.nextAttempt = now + wait
}

func (c *Controller) pruneSuspectsLocked(now time.Duration) {
	for n, until := range c.suspects {
		if now >= until {
			delete(c.suspects, n)
		}
	}
}

// planPlacementsLocked launches placement actions for open slots whose
// backoff and breaker allow an attempt.
func (c *Controller) planPlacementsLocked(cons *dirauth.Consensus, now time.Duration) {
	for _, s := range c.slots[:c.spec.Replicas] {
		if s.busy || (s.phase != PhaseEmpty && s.phase != PhaseFailed) {
			continue
		}
		if now < s.nextAttempt || now < s.breakerOpenUntil {
			continue
		}
		// Occupancy as of this instant, excluding the slot being placed
		// (a suspended slot must not be blocked by its own leftovers).
		used := make(map[string]bool)
		fams := make(map[string]bool)
		for _, o := range c.slots {
			if o != s && o.node != nil {
				used[o.node.Nickname] = true
				fams[o.node.Family()] = true
			}
		}
		req := placement{
			manifest:     c.spec.Manifest,
			used:         used,
			usedFamilies: fams,
			suspects:     c.suspects,
			now:          now,
			antiAffinity: !c.spec.AllowSharedFamily,
		}
		if s.unknownFate && s.node != nil {
			req.sticky = s.node.Nickname
		}
		node, relaxed, err := c.alloc.place(cons, req)
		if err != nil {
			c.om.starved.Inc()
			c.bumpBackoffLocked(s, now)
			continue
		}
		if relaxed {
			c.om.affinityRelaxed.Inc()
		}
		if s.unknownFate && s.node != nil && node.Nickname != s.node.Nickname {
			// Moving away from a placement whose fate we never learned:
			// its key may hold a container there. Hand it to the reaper
			// and start the new node on a fresh incarnation.
			c.addOrphanLocked(s.node, spawnKey(c.spec.Name, s.id, s.incarnation), s.man, now)
			s.incarnation++
		}
		s.unknownFate = false
		s.node = node
		s.man = c.spec.Manifest
		s.phase = PhaseStarting
		s.busy = true
		c.om.actions.Inc()
		id, inc, gen, spec := s.id, s.incarnation, c.gen, c.spec
		c.clock.Go(func() { c.runPlace(id, inc, gen, node, spec) })
	}
}

// runPlace executes one placement: spawn (idempotent by key), upload,
// init, health-check. handleResult decides what the outcome means.
func (c *Controller) runPlace(slotID, incarnation int, gen uint64, node *dirauth.Descriptor, spec *Spec) {
	sess := c.controlSession(node, c.cfg.Seed+int64(slotID)*131+int64(incarnation))
	fn, err := sess.SpawnWithKey(spec.Manifest, spawnKey(spec.Name, slotID, incarnation))
	if err == nil {
		err = fn.Upload(spec.Source)
	}
	if err == nil && spec.Init != nil {
		err = spec.Init(fn)
	}
	if err == nil && spec.HealthFn != "" {
		_, _, err = fn.Invoke(spec.HealthFn)
	}
	c.handleResult(result{
		slotID:      slotID,
		incarnation: incarnation,
		gen:         gen,
		kind:        "place",
		err:         err,
		unknownFate: errors.Is(err, bento.ErrTransport),
		sess:        sess,
		fn:          fn,
	})
	c.kick()
}

// planUpgradeLocked rolls a source change out: at most one replica
// upgrades at a time, and only while every other replica is ready, so
// an upgrade never drops availability below Replicas-1.
func (c *Controller) planUpgradeLocked(now time.Duration) {
	ready, stale := 0, -1
	for i, s := range c.slots[:min(c.spec.Replicas, len(c.slots))] {
		if s.busy {
			return // a placement or upgrade is already in flight somewhere
		}
		if s.phase == PhaseReady {
			ready++
			if s.srcHash != c.srcHash && stale < 0 {
				stale = i
			}
		}
	}
	if stale < 0 || ready < c.spec.Replicas {
		return
	}
	s := c.slots[stale]
	s.phase = PhaseUpgrading
	s.busy = true
	c.om.actions.Inc()
	id, inc, gen, fn, spec := s.id, s.incarnation, c.gen, s.fn, c.spec
	c.clock.Go(func() { c.runUpgrade(id, inc, gen, fn, spec) })
}

// runUpgrade re-uploads the spec source in place (cheap under the
// server's program cache) and re-checks health.
func (c *Controller) runUpgrade(slotID, incarnation int, gen uint64, fn *bento.SessionFunction, spec *Spec) {
	err := fn.Upload(spec.Source)
	if err == nil && spec.HealthFn != "" {
		_, _, err = fn.Invoke(spec.HealthFn)
	}
	c.handleResult(result{
		slotID:      slotID,
		incarnation: incarnation,
		gen:         gen,
		kind:        "upgrade",
		err:         err,
		unknownFate: errors.Is(err, bento.ErrTransport),
	})
	c.kick()
}

// handleResult folds an async action's outcome back into slot state,
// discarding it when the world moved on underneath it. After Close a
// result only closes its session.
func (c *Controller) handleResult(r result) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if r.sess != nil {
			r.sess.Close()
		}
		return
	}
	now := c.clock.Now()
	stale := r.slotID >= len(c.slots)
	var s *slot
	if !stale {
		s = c.slots[r.slotID]
		stale = !s.busy || s.incarnation != r.incarnation || r.gen != c.gen
	}
	if stale {
		// A spec change outran this action. Its resources are real,
		// though: shut the function down so nothing leaks, and unwedge
		// the slot so the current generation can re-place it.
		c.om.staleDiscarded.Inc()
		var node *dirauth.Descriptor
		var man *policy.Manifest
		var key string
		if s != nil && s.busy && s.incarnation == r.incarnation {
			key = spawnKey(c.spec.Name, r.slotID, r.incarnation)
			s.busy = false
			switch r.kind {
			case "place":
				node, man = s.node, s.man
				if r.fn == nil && r.unknownFate {
					// The spawn may have reached the server even though
					// no handle came back; the key must not be reused.
					c.addOrphanLocked(node, key, man, now)
				}
				s.phase = PhaseFailed
				s.node = nil
				s.man = nil
				s.unknownFate = false
				s.incarnation++
				c.bumpBackoffLocked(s, now)
			case "upgrade":
				// The replica's source is indeterminate between old and
				// new; replace it under the current spec.
				c.retireLocked(s, now, false, "stale upgrade")
			}
		}
		c.mu.Unlock()
		if r.fn != nil {
			c.clock.Go(func() {
				err := r.fn.Shutdown()
				r.sess.Close()
				if err != nil && node != nil {
					c.addOrphan(node, key, man)
				}
			})
		} else if r.sess != nil {
			c.clock.Go(func() { r.sess.Close() })
		}
		return
	}
	defer c.mu.Unlock()
	s.busy = false

	if r.err != nil {
		c.om.actionFailures.Inc()
		switch r.kind {
		case "place":
			if r.unknownFate {
				// The server may hold our key: stay sticky, same
				// incarnation, and suspect the node.
				s.unknownFate = true
				if s.node != nil {
					c.suspects[s.node.Nickname] = now + suspectCooldown
				}
				s.phase = PhaseFailed
				if r.sess != nil {
					c.clock.Go(func() { r.sess.Close() })
				}
			} else if r.fn != nil {
				// Spawn reached the server but the replica is bad
				// (upload/init/health rejected it): a confirmed poison
				// placement. Tear it down and advance the incarnation.
				s.sess, s.fn = r.sess, r.fn
				c.retireLocked(s, now, true, "placement failed")
				c.bumpBackoffLocked(s, now)
				return
			} else {
				// Definite refusal before any container existed
				// (policy, PoW, spawn error): nothing to clean up.
				s.phase = PhaseFailed
				if r.sess != nil {
					c.clock.Go(func() { r.sess.Close() })
				}
				s.breakerFails++
				if s.breakerFails >= breakerThreshold && now >= s.breakerOpenUntil {
					s.breakerOpenUntil = now + breakerCooldown
					c.om.breakerTrips.Inc()
				}
			}
			c.bumpBackoffLocked(s, now)
		case "upgrade":
			// The replica may be mid-flight between old and new source:
			// not trustworthy either way. Replace it.
			c.retireLocked(s, now, !r.unknownFate, "upgrade failed")
			c.bumpBackoffLocked(s, now)
		}
		c.updateConvergenceLocked(now)
		return
	}

	switch r.kind {
	case "place":
		s.phase = PhaseReady
		s.sess = r.sess
		s.fn = r.fn
		s.invokeTok = r.fn.InvokeToken()
		s.srcHash = c.srcHash
		s.readySince = now
		s.probeFails = 0
		s.unknownFate = false
		s.backoff = 0
		s.nextAttempt = 0
	case "upgrade":
		s.phase = PhaseReady
		s.srcHash = c.srcHash
		s.readySince = now
		c.om.upgrades.Inc()
	}
	c.updateConvergenceLocked(now)
}

// addOrphan records a possibly-leaked placement for the reaper.
func (c *Controller) addOrphan(node *dirauth.Descriptor, key string, man *policy.Manifest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addOrphanLocked(node, key, man, c.clock.Now())
}

func (c *Controller) addOrphanLocked(node *dirauth.Descriptor, key string, man *policy.Manifest, now time.Duration) {
	if node == nil || man == nil || c.closed {
		return
	}
	for _, o := range c.orphans {
		if o.key == key && o.node.Nickname == node.Nickname {
			return
		}
	}
	c.orphans = append(c.orphans, &orphan{
		node:        node,
		key:         key,
		man:         man,
		backoff:     baseBackoff,
		nextAttempt: now + suspectCooldown,
	})
}

// reapOrphansLocked launches ensure-absent actions for due orphans:
// spawn under the orphan's key (adopting the leaked container if it
// exists) and shut it down. Failures requeue with backoff. Orphans on
// nodes the directory has delisted are written off — the consensus is
// the liveness oracle, and a reap against a delisted node could never
// confirm anything.
func (c *Controller) reapOrphansLocked(now time.Duration) {
	if c.lastConsensus != nil {
		listed := make(map[string]bool)
		for _, d := range c.lastConsensus.BentoNodes() {
			listed[d.Nickname] = true
		}
		kept := c.orphans[:0]
		for _, o := range c.orphans {
			if o.busy || listed[o.node.Nickname] {
				kept = append(kept, o)
			}
		}
		c.orphans = kept
	}
	for _, o := range c.orphans {
		if o.busy || now < o.nextAttempt {
			continue
		}
		o.busy = true
		c.om.actions.Inc()
		c.clock.Go(func() { c.runReap(o) })
	}
}

func (c *Controller) runReap(o *orphan) {
	sess := c.controlSession(o.node, c.cfg.Seed^int64(len(o.key)))
	fn, err := sess.SpawnWithKey(o.man, o.key)
	if err == nil {
		err = fn.Shutdown()
	}
	sess.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	o.busy = false
	if err != nil {
		c.om.actionFailures.Inc()
		now := c.clock.Now()
		o.backoff = min(o.backoff*2, maxBackoff)
		o.nextAttempt = now + o.backoff
		return
	}
	c.om.orphanReaps.Inc()
	for i, oo := range c.orphans {
		if oo == o {
			c.orphans = append(c.orphans[:i], c.orphans[i+1:]...)
			break
		}
	}
}

// updateConvergenceLocked maintains the desired-vs-ready gauges and the
// diverged→converged transition bookkeeping that feeds the
// convergence-latency histogram.
func (c *Controller) updateConvergenceLocked(now time.Duration) {
	desired := c.spec.Replicas
	ready := 0
	for _, s := range c.slots {
		if s.phase == PhaseReady && s.srcHash == c.srcHash && !s.busy {
			ready++
		}
	}
	c.om.desired.Set(int64(desired))
	c.om.ready.Set(int64(ready))
	if ready >= desired && !c.converged {
		c.converged = true
		c.om.convergences.Inc()
		c.om.convergeMs.Observe((now - c.divergedSince).Milliseconds())
	} else if ready < desired && c.converged {
		c.converged = false
		c.divergedSince = now
	}
}
