package torclient

import (
	"crypto/ed25519"
	"fmt"
	"net"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/otr"
)

// Hidden-service operations. The client side establishes rendezvous points
// and sends introductions; the service side establishes intro circuits and
// attaches a service crypto layer to rendezvous circuits. See §2.1 of the
// paper for the protocol outline this follows.

// EstablishRendezvous registers a one-time cookie at the circuit's last
// hop, marking it as this client's rendezvous point.
func (circ *Circuit) EstablishRendezvous(cookie []byte) error {
	data, err := cell.EncodeControl(&cell.EstablishRendezvousPayload{Cookie: cookie})
	if err != nil {
		return err
	}
	if err := circ.send(cell.RelayHeader{Cmd: cell.RelayEstablishRendezvous}, data); err != nil {
		return err
	}
	_, err = circ.awaitCtrl(cell.RelayRendezvousEstablished)
	return err
}

// SendIntroduce1 asks the circuit's last hop (an introduction point) to
// forward inner to the named service, waiting for the acknowledgment.
func (circ *Circuit) SendIntroduce1(serviceID string, inner []byte) error {
	data, err := cell.EncodeControl(&cell.Introduce1Payload{ServiceID: serviceID, Inner: inner})
	if err != nil {
		return err
	}
	if err := circ.send(cell.RelayHeader{Cmd: cell.RelayIntroduce1}, data); err != nil {
		return err
	}
	_, err = circ.awaitCtrl(cell.RelayIntroduceAck)
	return err
}

// AwaitRendezvous2 blocks until the rendezvous point forwards the
// service's handshake reply, returning it.
func (circ *Circuit) AwaitRendezvous2() ([]byte, error) {
	m, err := circ.awaitCtrl(cell.RelayRendezvous2)
	if err != nil {
		return nil, err
	}
	var rv cell.Rendezvous2Payload
	if err := cell.DecodeControl(m.data, &rv); err != nil {
		return nil, err
	}
	return rv.Reply, nil
}

// AttachRendezvousLayer appends the end-to-end service layer to a client
// circuit after a completed rendezvous handshake. Streams opened
// afterwards terminate at the hidden service.
func (circ *Circuit) AttachRendezvousLayer(keys []byte) error {
	layer, err := otr.NewLayer(keys)
	if err != nil {
		return err
	}
	circ.mu.Lock()
	circ.layers = append(circ.layers, layer)
	circ.mu.Unlock()
	return nil
}

// EstablishIntro registers this circuit as an introduction circuit for the
// service identified by priv. onIntroduce2 is invoked with each forwarded
// INTRODUCE2 payload.
func (circ *Circuit) EstablishIntro(priv ed25519.PrivateKey, serviceID string, onIntroduce2 func([]byte)) error {
	sig := ed25519.Sign(priv, []byte("establish-intro:"+serviceID))
	data, err := cell.EncodeControl(&cell.EstablishIntroPayload{ServiceID: serviceID, Signature: sig})
	if err != nil {
		return err
	}
	circ.mu.Lock()
	circ.onIntro2 = onIntroduce2
	circ.mu.Unlock()
	if err := circ.send(cell.RelayHeader{Cmd: cell.RelayEstablishIntro}, data); err != nil {
		return err
	}
	_, err = circ.awaitCtrl(cell.RelayIntroEstablished)
	return err
}

// SendRendezvous1 completes a rendezvous from the service side: the
// circuit's last hop must be the client's rendezvous point. reply is the
// service's ntor CREATED reply, forwarded to the client as RENDEZVOUS2.
func (circ *Circuit) SendRendezvous1(cookie, reply []byte) error {
	data, err := cell.EncodeControl(&cell.Rendezvous1Payload{Cookie: cookie, Reply: reply})
	if err != nil {
		return err
	}
	return circ.send(cell.RelayHeader{Cmd: cell.RelayRendezvous1}, data)
}

// AttachServiceLayer installs the hidden-service side of a completed
// rendezvous handshake on this circuit: cells unrecognized by the
// circuit's own layers are tried against the service layer, and BEGINs
// arriving there are handed to acceptor as net.Conns.
func (circ *Circuit) AttachServiceLayer(keys []byte, acceptor func(net.Conn)) error {
	layer, err := otr.NewLayer(keys)
	if err != nil {
		return err
	}
	circ.mu.Lock()
	circ.svc = &serviceState{
		layer:    layer,
		acceptor: acceptor,
		streams:  make(map[uint16]*Stream),
	}
	circ.mu.Unlock()
	return nil
}

// handleServiceCell processes a relay cell recognized at the service
// layer (called with circ.mu released): cell k of the run pend gathers
// stream data from. DATA joins pend; anything else flushes it first.
func (circ *Circuit) handleServiceCell(hdr cell.RelayHeader, data []byte, k int, pend *streamData) {
	if hdr.Cmd != cell.RelayData {
		pend.flush()
	}
	switch hdr.Cmd {
	case cell.RelayBegin:
		s := newStream(circ, hdr.StreamID, true)
		s.connected()
		circ.mu.Lock()
		svc := circ.svc
		if svc != nil {
			svc.streams[hdr.StreamID] = s
		}
		circ.mu.Unlock()
		if svc == nil {
			return
		}
		if err := circ.sendServiceCell(cell.RelayHeader{StreamID: hdr.StreamID, Cmd: cell.RelayConnected}, nil); err != nil {
			return
		}
		go svc.acceptor(s)
	case cell.RelayData:
		circ.mu.Lock()
		var s *Stream
		if circ.svc != nil {
			s = circ.svc.streams[hdr.StreamID]
		}
		circ.mu.Unlock()
		if s != nil {
			pend.add(s, k, len(data))
		}
	case cell.RelayEnd:
		circ.mu.Lock()
		var s *Stream
		if circ.svc != nil {
			s = circ.svc.streams[hdr.StreamID]
			delete(circ.svc.streams, hdr.StreamID)
		}
		circ.mu.Unlock()
		if s != nil {
			s.deliverEOF()
		}
	case cell.RelayDrop:
		// Cover traffic at the service layer: absorbed.
	}
}

// sendServiceCell originates a cell at the service layer and pushes it
// through the circuit toward the rendezvous point and on to the client.
func (circ *Circuit) sendServiceCell(hdr cell.RelayHeader, data []byte) error {
	circ.mu.Lock()
	svc := circ.svc
	if svc == nil {
		circ.mu.Unlock()
		return fmt.Errorf("torclient: no service layer attached")
	}
	payload := cell.WirePayload(circ.sendWire)
	if err := cell.PackRelay(payload, hdr, data); err != nil {
		circ.mu.Unlock()
		return err
	}
	// The service is the "relay side" of the end-to-end layer: it seals
	// and encrypts in the backward direction, which the client peels as
	// its final onion layer.
	svc.layer.SealBackward(payload, cell.DigestOffset)
	svc.layer.ApplyBackward(payload)

	if circ.isClosed() {
		circ.mu.Unlock()
		return ErrCircuitClosed
	}
	for i := len(circ.layers) - 1; i >= 0; i-- {
		circ.layers[i].ApplyForward(payload)
	}
	cell.SetWireCircID(circ.sendWire, circ.circID)
	cell.SetWireCmd(circ.sendWire, cell.CmdRelay)
	err := circ.w.WriteFrame(circ.sendWire)
	circ.mu.Unlock()
	return err
}

func (circ *Circuit) dropServiceStream(id uint16) {
	circ.mu.Lock()
	if circ.svc != nil {
		delete(circ.svc.streams, id)
	}
	circ.mu.Unlock()
}
