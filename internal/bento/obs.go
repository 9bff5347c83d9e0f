package bento

import (
	"github.com/bento-nfv/bento/internal/obs"
)

// serverMetrics is a Bento server's pre-registered telemetry bundle,
// fetched from the host network's registry at NewServer time. Names are
// shared by every node on the network, so the dashboard aggregates the
// whole deployment; a network without telemetry yields nil handles and
// every update is a no-op.
type serverMetrics struct {
	spawns           *obs.Counter
	spawnRejects     *obs.Counter // PoW or supervisor refusals
	uploads          *obs.Counter
	uploadFailures   *obs.Counter
	invokes          *obs.Counter
	invokeErrors     *obs.Counter
	shutdowns        *obs.Counter
	watchdogRestarts *obs.Counter   // successful container revivals
	restartStorms    *obs.Counter   // crash-loops the storm guard gave up on
	tenantPanics     *obs.Counter   // containers torn down because their code panicked
	progCacheHits    *obs.Counter   // uploads served from the compiled-program cache
	progCacheMisses  *obs.Counter   // uploads that had to compile
	invokeQueue      *obs.Gauge     // invocations in flight or waiting on a function's run lock
	invokeNs         *obs.Histogram // queue wait + execution per invocation (virtual ns)
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		spawns:           reg.Counter("bento.spawns"),
		spawnRejects:     reg.Counter("bento.spawn_rejects"),
		uploads:          reg.Counter("bento.uploads"),
		uploadFailures:   reg.Counter("bento.upload_failures"),
		invokes:          reg.Counter("bento.invokes"),
		invokeErrors:     reg.Counter("bento.invoke_errors"),
		shutdowns:        reg.Counter("bento.shutdowns"),
		watchdogRestarts: reg.Counter("bento.watchdog_restarts"),
		restartStorms:    reg.Counter("bento.watchdog_restart_storms"),
		tenantPanics:     reg.Counter("bento.tenant_panics"),
		progCacheHits:    reg.Counter("bento.program_cache_hits"),
		progCacheMisses:  reg.Counter("bento.program_cache_misses"),
		invokeQueue:      reg.Gauge("bento.invoke_queue_depth"),
		invokeNs:         reg.Histogram("bento.invoke_ns", obs.LatencyBuckets),
	}
}

// obsReg resolves the client-side registry through the onion proxy's
// host. Sessions span circuit rebuilds, so the network — not any one
// connection — is the natural owner.
func (c *Client) obsReg() *obs.Registry {
	if c == nil || c.Tor == nil {
		return nil
	}
	return c.Tor.Host().Network().Obs()
}
