package torclient

import (
	"crypto/rand"
	"sync/atomic"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
)

// CoverPlugin is the client-side half of the Cover function (Figure 3
// shows it inside the user's onion proxy): it keeps a circuit's outbound
// direction transmitting at a fixed rate by sending DROP cells whenever
// the application has nothing to send, complementing the server-side
// cover stream.
type CoverPlugin struct {
	circ     *Circuit
	interval time.Duration
	stopped  atomic.Bool
	sent     atomic.Int64
}

// StartCover begins fixed-rate outbound padding on the circuit: one
// full-size DROP cell every interval (virtual time) until Stop or circuit
// teardown.
func (circ *Circuit) StartCover(interval time.Duration) *CoverPlugin {
	p := &CoverPlugin{circ: circ, interval: interval}
	circ.client.Clock().Go(p.run)
	return p
}

func (p *CoverPlugin) run() {
	clock := p.circ.client.host.Clock()
	junk := make([]byte, cell.MaxRelayData)
	for !p.stopped.Load() && !p.circ.isClosed() {
		rand.Read(junk[:32]) // cheap freshness; the cell is discarded anyway
		if err := p.circ.SendDrop(junk); err != nil {
			return
		}
		p.sent.Add(1)
		clock.Sleep(p.interval)
	}
}

// Sent reports how many padding cells have been emitted.
func (p *CoverPlugin) Sent() int { return int(p.sent.Load()) }

// Stop halts the padding stream.
func (p *CoverPlugin) Stop() { p.stopped.Store(true) }
