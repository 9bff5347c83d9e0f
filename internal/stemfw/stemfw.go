// Package stemfw implements the Stem firewall of §5.3: the policy-
// enforcement layer through which Bento functions access the co-resident
// Tor instance. The firewall mediates every control invocation against
// the session's allowed-call set and enters what each call opens —
// circuits, streams, hidden services, rendezvous circuits — in the
// container's handle table, so a function names only what it opened and
// fate-shares with all of it when its container closes.
package stemfw

import (
	"fmt"
	"net"
	"sync"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/hs"
	"github.com/bento-nfv/bento/internal/sandbox"
	"github.com/bento-nfv/bento/internal/torclient"
)

// ErrDenied is returned when the firewall blocks an invocation, including
// one naming a handle the function does not hold.
var ErrDenied = sandbox.ErrDenied

// DefaultMaxCircuits bounds circuits per function session.
const DefaultMaxCircuits = 8

// maxIntros bounds a queued hidden service's pending introductions; past
// it an introduction is dropped and the client retries.
const maxIntros = 64

// Session is one function's window onto the Tor instance: the policy
// side. What the function holds lives in its container's handle table.
type Session struct {
	tor     *torclient.Client
	handles *sandbox.Handles
	allowed map[string]bool
}

// NewSession returns a session over a container's handle table with the
// given allowed stem.* calls.
func NewSession(tor *torclient.Client, handles *sandbox.Handles, allowedCalls []string) *Session {
	s := &Session{tor: tor, handles: handles, allowed: make(map[string]bool, len(allowedCalls))}
	for _, c := range allowedCalls {
		s.allowed[c] = true
	}
	return s
}

func (s *Session) check(call string) error {
	if !s.allowed[call] {
		return fmt.Errorf("%w: %s", ErrDenied, call)
	}
	return nil
}

// CreateCircuit builds a general-purpose 3-hop circuit and returns its
// handle. The firewall caps circuits per session.
func (s *Session) CreateCircuit(destHost string, destPort int) (int, error) {
	if err := s.check("stem.create_circuit"); err != nil {
		return 0, err
	}
	if s.handles.Count(sandbox.KindCircuit) >= DefaultMaxCircuits {
		return 0, fmt.Errorf("%w: circuit limit %d reached", ErrDenied, DefaultMaxCircuits)
	}
	path, err := s.tor.PickPath(destHost, destPort)
	if err != nil {
		return 0, err
	}
	circ, err := s.tor.BuildCircuit(path)
	if err != nil {
		return 0, err
	}
	return s.handles.Add(sandbox.KindCircuit, circ, circ.Close)
}

// OpenStream opens a stream on a session-owned circuit. Functions cannot
// reference circuits they did not create — the container's handle table
// is the isolation boundary.
func (s *Session) OpenStream(circHandle int, target string) (int, error) {
	if err := s.check("stem.create_circuit"); err != nil {
		return 0, err
	}
	circ, err := sandbox.Get[*torclient.Circuit](s.handles, circHandle, sandbox.KindCircuit)
	if err != nil {
		return 0, err
	}
	conn, err := circ.OpenStream(target)
	if err != nil {
		return 0, err
	}
	return s.handles.Add(sandbox.KindStream, conn, conn.Close)
}

// Stream returns a session-owned stream.
func (s *Session) Stream(handle int) (net.Conn, error) {
	return sandbox.Get[net.Conn](s.handles, handle, sandbox.KindStream)
}

// CloseStream closes a session-owned stream.
func (s *Session) CloseStream(handle int) error {
	return s.handles.Release(handle, sandbox.KindStream)
}

// CloseCircuit tears down a session-owned circuit.
func (s *Session) CloseCircuit(handle int) error {
	if err := s.check("stem.close_circuit"); err != nil {
		return err
	}
	return s.handles.Release(handle, sandbox.KindCircuit)
}

// SendDrop emits a padding cell on a session-owned circuit (the primitive
// behind the Cover function).
func (s *Session) SendDrop(circHandle int, junk []byte) error {
	if err := s.check("stem.create_circuit"); err != nil {
		return err
	}
	circ, err := sandbox.Get[*torclient.Circuit](s.handles, circHandle, sandbox.KindCircuit)
	if err != nil {
		return err
	}
	return circ.SendDrop(junk)
}

// introQueue holds a queued hidden service's pending introductions,
// oldest first.
type introQueue struct {
	mu    sync.Mutex
	blobs [][]byte
}

func (q *introQueue) push(intro *cell.IntroducePlaintext) {
	blob, err := cell.EncodeControl(intro)
	if err != nil {
		return
	}
	q.mu.Lock()
	if len(q.blobs) < maxIntros {
		q.blobs = append(q.blobs, blob)
	}
	q.mu.Unlock()
}

func (q *introQueue) pop() []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.blobs) == 0 {
		return nil
	}
	blob := q.blobs[0]
	q.blobs = q.blobs[1:]
	return blob
}

// LaunchHiddenService starts a hidden service whose introductions are
// queued for the function to consume (the LoadBalancer front pattern).
// When handler is non-nil introductions are instead served locally.
// In the paper's design this spawns a dedicated Onion Proxy inside the
// container (§5.4); the firewall models that by giving the service its
// own identity while sharing the host's overlay connectivity.
func (s *Session) LaunchHiddenService(ident *hs.Identity, handler func(net.Conn)) (int, error) {
	if err := s.check("stem.launch_hs"); err != nil {
		return 0, err
	}
	if handler != nil {
		svc, err := hs.Launch(s.tor, ident, hs.ServiceConfig{Handler: handler})
		if err != nil {
			return 0, err
		}
		return s.handles.Add(sandbox.KindService, svc, svc.Close)
	}
	q := &introQueue{}
	svc, err := hs.Launch(s.tor, ident, hs.ServiceConfig{OnIntroduce: q.push})
	if err != nil {
		return 0, err
	}
	return s.handles.Add(sandbox.KindIntroQueue, q, svc.Close)
}

// NextIntroduction dequeues a pending introduction blob for a queued
// hidden service, or returns nil when none is pending. Non-blocking: the
// caller polls.
func (s *Session) NextIntroduction(hsHandle int) ([]byte, error) {
	if err := s.check("stem.launch_hs"); err != nil {
		return nil, err
	}
	q, err := sandbox.Get[*introQueue](s.handles, hsHandle, sandbox.KindIntroQueue)
	if err != nil {
		return nil, err
	}
	return q.pop(), nil
}

// RespondAtRendezvous completes a rendezvous on behalf of a service
// identity, serving each connection with handler. Used by replicas. The
// handler runs asynchronously; ActiveTransfers reports in-flight
// connections so balancers can poll replica load (§8.2's "periodic
// messages from replicas describing their load").
func (s *Session) RespondAtRendezvous(ident *hs.Identity, introBlob []byte, handler func(net.Conn)) error {
	if err := s.check("stem.launch_hs"); err != nil {
		return err
	}
	var intro cell.IntroducePlaintext
	if err := cell.DecodeControl(introBlob, &intro); err != nil {
		return fmt.Errorf("stemfw: bad introduction blob: %w", err)
	}
	circ, err := hs.RespondAtRendezvous(s.tor, ident, &intro, handler)
	if err != nil {
		return err
	}
	// A transfer is "active" from the moment we commit to the rendezvous
	// until the client's circuit tears down — so load reports never lag
	// behind assignments.
	h, err := s.handles.Add(sandbox.KindRendezvous, circ, circ.Close)
	if err != nil {
		return err
	}
	circ.OnClose(func() { s.handles.Release(h, sandbox.KindRendezvous) })
	return nil
}

// ActiveTransfers reports in-flight rendezvous connections.
func (s *Session) ActiveTransfers() int {
	return s.handles.Count(sandbox.KindRendezvous)
}
