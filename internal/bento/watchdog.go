// The server-side restart watchdog. A function that dies — killed, out of
// instruction budget, or over its memory limit — leaves a dead interpreter
// behind: the kill flag and the spent budget are sticky, so every later
// invocation would fail. When the function's manifest opts in via its
// Restart policy, the server instead respawns the container (preserving
// its private filesystem as a persistent volume), rebinds the host API,
// re-runs the last uploaded code, and keeps both capability tokens valid.
// Clients see a done frame with Restarted=true and may simply retry.
package bento

import (
	"errors"
	"time"

	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/policy"
)

// maxRestarts caps watchdog revivals per function, bounding the work a
// crash-looping function can extract from the node.
const maxRestarts = 16

// The restart-storm guard: a function revived restartStormMax times
// within a sliding restartStormWindow (virtual time) is crash-looping —
// reviving it again would only let it extract more cycles. The watchdog
// instead declares it permanently failed: no further restarts, every
// later invocation reports the state to the client (PermFailed on the
// done frame → ErrPermanentFailure), and a fleet controller reading that
// signal replaces the replica instead of retrying forever.
const (
	restartStormMax    = 4
	restartStormWindow = 30 * time.Second
)

// crashClass reports whether err killed the interpreter (as opposed to an
// application-level error that leaves the machine healthy).
func crashClass(err error) bool {
	return errors.Is(err, interp.ErrKilled) ||
		errors.Is(err, interp.ErrBudgetExceeded) ||
		errors.Is(err, interp.ErrMemoryExceeded)
}

// maybeRestart applies the function's restart policy after a failed run.
// It must be called with rf.runMu held. It returns true when the function
// came back: a fresh container mounted on the old file store, API
// rebound, last uploaded code re-run, tokens unchanged.
func (s *Server) maybeRestart(rf *runningFunction, cause error) bool {
	if !crashClass(cause) {
		return false
	}
	switch rf.man.Restart {
	case policy.RestartOnFailure, policy.RestartAlways:
	default:
		return false
	}
	now := s.cfg.Host.Clock().Now()
	rf.cmu.Lock()
	if rf.permFailed {
		rf.cmu.Unlock()
		return false
	}
	// Slide the storm window forward, then check whether one more
	// revival would exceed the rate the guard allows.
	keep := rf.restartTimes[:0]
	for _, t := range rf.restartTimes {
		if now-t < restartStormWindow {
			keep = append(keep, t)
		}
	}
	rf.restartTimes = keep
	if len(rf.restartTimes) >= restartStormMax || rf.restarts >= maxRestarts {
		rf.permFailed = true
		rf.cmu.Unlock()
		s.om.restartStorms.Inc()
		return false
	}
	gen := rf.restarts
	code := rf.code
	old := rf.container
	rf.cmu.Unlock()
	container, err := s.sup.Respawn(old.ID(), rf.man)
	if err != nil {
		return false
	}
	rf.cmu.Lock()
	rf.container = container
	rf.restarts = gen + 1
	rf.restartTimes = append(rf.restartTimes, now)
	rf.cmu.Unlock()
	s.bindAPI(rf)
	if code != "" {
		if err := s.runCode(rf, code); err != nil {
			// The code itself dies on a fresh machine; reviving again
			// would loop. Leave the corpse for the next policy decision.
			return false
		}
	}
	s.om.watchdogRestarts.Inc()
	return true
}

// KillFunction aborts the function holding the given invocation token as
// though it crashed mid-run — the fault-injection hook chaos experiments
// use. With a restart policy in the manifest, the watchdog revives it on
// the next invocation. Returns false for an unknown token.
func (s *Server) KillFunction(invokeTok string) bool {
	rf := s.lookup(invokeTok)
	if rf == nil {
		return false
	}
	rf.ctr().Kill()
	return true
}

// FunctionRestarts reports how many times the watchdog has revived the
// function holding the given invocation token.
func (s *Server) FunctionRestarts(invokeTok string) int {
	rf := s.lookup(invokeTok)
	if rf == nil {
		return 0
	}
	rf.cmu.Lock()
	defer rf.cmu.Unlock()
	return rf.restarts
}

// Function status strings reported by FunctionStatus.
const (
	StatusRunning  = "running"
	StatusPermFail = "permanent-failed"
	StatusUnknown  = "unknown"
)

// FunctionStatus reports the lifecycle state of the function holding the
// given invocation token: StatusRunning, StatusPermFail (the restart-storm
// guard gave up on it), or StatusUnknown for a token this server does not
// hold (never spawned here, or already shut down).
func (s *Server) FunctionStatus(invokeTok string) string {
	rf := s.lookup(invokeTok)
	if rf == nil {
		return StatusUnknown
	}
	if rf.permanentlyFailed() {
		return StatusPermFail
	}
	return StatusRunning
}
