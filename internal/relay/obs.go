package relay

import (
	"github.com/bento-nfv/bento/internal/obs"
)

// relayMetrics is the relay's pre-registered telemetry handle bundle.
// Handles are fetched once in New (nil registry → nil handles → every
// update is a no-op), and names are shared across all relays on one
// network, so the counters aggregate relay-wide by construction.
// Per-cell updates (fwd/bwd/recognized) are single atomic adds — the
// forwarding path stays allocation-free.
type relayMetrics struct {
	circCreated   *obs.Counter
	circDestroyed *obs.Counter
	// openCircs is a plain gauge moved ±1 at create/teardown rather
	// than a GaugeFunc: the name is shared by every relay on the
	// network, and a per-relay callback would be last-writer-wins,
	// while Add deltas aggregate deployment-wide by construction.
	openCircs *obs.Gauge

	fwdCells   *obs.Counter // forwarded toward the exit, in place
	bwdCells   *obs.Counter // relayed toward the client (incl. splices)
	originated *obs.Counter // backward cells originated at this hop
	recognized *obs.Counter // cells addressed to this hop
	dropped    *obs.Counter // unrecognized at the last hop (circuit killed)

	extends     *obs.Counter
	extendFails *obs.Counter

	streamsOpened  *obs.Counter
	streamsRefused *obs.Counter

	introsForwarded *obs.Counter
	rendSplices     *obs.Counter
	stalls          *obs.Counter // feeds paused behind a congested egress
}

func newRelayMetrics(reg *obs.Registry) relayMetrics {
	return relayMetrics{
		circCreated:     reg.Counter("relay.circuits_created"),
		circDestroyed:   reg.Counter("relay.circuits_destroyed"),
		openCircs:       reg.Gauge("relay.open_circuits"),
		fwdCells:        reg.Counter("relay.cells_forwarded"),
		bwdCells:        reg.Counter("relay.cells_relayed_back"),
		originated:      reg.Counter("relay.cells_originated"),
		recognized:      reg.Counter("relay.cells_recognized"),
		dropped:         reg.Counter("relay.cells_dropped"),
		extends:         reg.Counter("relay.extends"),
		extendFails:     reg.Counter("relay.extend_failures"),
		streamsOpened:   reg.Counter("relay.streams_opened"),
		streamsRefused:  reg.Counter("relay.streams_refused"),
		introsForwarded: reg.Counter("relay.intros_forwarded"),
		rendSplices:     reg.Counter("relay.rendezvous_splices"),
		stalls:          reg.Counter("relay.egress_stalls"),
	}
}
