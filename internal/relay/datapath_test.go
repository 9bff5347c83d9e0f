package relay

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
)

const churnID = 0xFF

// sinkState verifies every sink connection independently: each 4-byte
// record carries a sender ID in the high byte and a sequence number
// below, and the sequence on one connection must be a contiguous run
// from zero — a lost, duplicated, or reordered cell anywhere in the
// relay's datapath breaks contiguity at the sink.
type sinkState struct {
	mu     sync.Mutex
	counts map[byte]int
	errs   []string
}

func (s *sinkState) fail(format string, args ...any) {
	s.mu.Lock()
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func (s *sinkState) count(id byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[id]
}

func (s *sinkState) verifyConn(c net.Conn) {
	defer c.Close()
	var rec [4]byte
	var id byte
	next := 0
	for {
		if _, err := io.ReadFull(c, rec[:]); err != nil {
			// EOF, or a trailing partial record from a circuit torn down
			// mid-write: the contiguous prefix up to here is what matters.
			return
		}
		v := binary.BigEndian.Uint32(rec[:])
		if next == 0 {
			id = byte(v >> 24)
		} else if byte(v>>24) != id {
			s.fail("sink conn switched sender %#x -> %#x", id, byte(v>>24))
			return
		}
		if int(v&0xffffff) != next {
			s.fail("sender %#x: seq %d after %d cells (lost/dup/reordered)", id, v&0xffffff, next)
			return
		}
		next++
		if id != churnID {
			s.mu.Lock()
			s.counts[id] = next
			s.mu.Unlock()
		}
	}
}

// stressClient is a raw single-hop circuit: manual CREATE handshake plus
// cell-level send helpers, safe to drive from its own goroutine.
type stressClient struct {
	conn  net.Conn
	layer *otr.Layer
	circ  uint32
}

func newStressClient(n *simnet.Network, hostName string, r *Relay, circID uint32) (*stressClient, error) {
	host := n.AddHost(hostName, 0)
	conn, err := host.Dial("relay0:9001")
	if err != nil {
		return nil, err
	}
	d, err := r.Descriptor()
	if err != nil {
		return nil, err
	}
	hs, msg, err := otr.NewClientHandshake([]byte(d.Fingerprint()), d.OnionKey)
	if err != nil {
		return nil, err
	}
	create := &cell.Cell{CircID: circID, Cmd: cell.CmdCreate}
	copy(create.Payload[:], msg)
	if err := cell.Write(conn, create); err != nil {
		return nil, err
	}
	created, err := cell.Read(conn)
	if err != nil {
		return nil, err
	}
	if created.Cmd != cell.CmdCreated {
		return nil, fmt.Errorf("got %v, want CREATED", created.Cmd)
	}
	keys, err := hs.Finish(created.Payload[:otr.PublicKeyLen+otr.AuthLen])
	if err != nil {
		return nil, err
	}
	layer, err := otr.NewLayer(keys)
	if err != nil {
		return nil, err
	}
	return &stressClient{conn: conn, layer: layer, circ: circID}, nil
}

func (c *stressClient) sendRelay(hdr cell.RelayHeader, data []byte) error {
	cc := &cell.Cell{CircID: c.circ, Cmd: cell.CmdRelay}
	if err := cell.PackRelay(cc.Payload[:], hdr, data); err != nil {
		return err
	}
	c.layer.SealForward(cc.Payload[:], cell.DigestOffset)
	c.layer.ApplyForward(cc.Payload[:])
	return cell.Write(c.conn, cc)
}

// awaitConnected reads backward cells until the CONNECTED for the BEGIN
// just sent (or fails on END/DESTROY).
func (c *stressClient) awaitConnected() error {
	c.conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	defer c.conn.SetReadDeadline(time.Time{})
	for {
		cc, err := cell.Read(c.conn)
		if err != nil {
			return err
		}
		if cc.Cmd == cell.CmdDestroy {
			return fmt.Errorf("circuit destroyed before CONNECTED")
		}
		c.layer.ApplyBackward(cc.Payload[:])
		if !cell.Recognized(cc.Payload[:]) || !c.layer.VerifyBackward(cc.Payload[:], cell.DigestOffset) {
			return fmt.Errorf("unrecognized backward cell")
		}
		hdr, _, err := cell.ParseRelay(cc.Payload[:])
		if err != nil {
			return err
		}
		switch hdr.Cmd {
		case cell.RelayConnected:
			return nil
		case cell.RelayEnd:
			return fmt.Errorf("stream refused")
		}
	}
}

// TestTeardownForwardStress races circuit teardown against in-flight
// forwarding on the sharded circuit table: stable circuits stream
// sequenced cells through exit streams while churn goroutines build
// circuits, push cells, and tear them down mid-flight (DESTROY, abrupt
// link close, and tampered-cell kills). The sink asserts per-connection
// sequence contiguity — no cell may be lost, duplicated, or reordered
// within a circuit no matter what the neighbors are doing — and the
// stable circuits must deliver every cell. Run under -race this is the
// datapath's concurrency regression test (scripts/check.sh does so). On
// the wall-backed clock the callbacks of different links run on
// different timer goroutines, which is where the races would be.
func TestTeardownForwardStress(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		teardownForwardStress(t, newNet())
	})
}

func teardownForwardStress(t *testing.T, n *simnet.Network) {
	cellsPerSender, churnIters := 400, 24
	if raceEnabled || testing.Short() {
		cellsPerSender, churnIters = 150, 8
	}
	const stableSenders, churners, cellsPerChurn = 3, 2, 5

	host := n.AddHost("relay0", 0)
	r, err := New(host, Config{
		Nickname:   "relay0",
		Flags:      []string{dirauth.FlagGuard, dirauth.FlagExit},
		ExitPolicy: policy.AcceptAll(),
		Quiet:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	track(t, r)
	defer r.Close()

	sink := &sinkState{counts: map[byte]int{}}
	sinkHost := n.AddHost("sink", 0)
	ln, err := sinkHost.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go sink.verifyConn(c)
		}
	}()

	beginPayload, _ := cell.EncodeControl(&cell.BeginPayload{Target: "sink:80"})
	begin := cell.RelayHeader{StreamID: 1, Cmd: cell.RelayBegin}
	data := cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}

	// Stable senders: one circuit each, every cell must arrive in order.
	var stableWG sync.WaitGroup
	stable := make([]*stressClient, stableSenders)
	for id := 1; id <= stableSenders; id++ {
		stableWG.Add(1)
		go func(id int) {
			defer stableWG.Done()
			sc, err := newStressClient(n, fmt.Sprintf("stable%d", id), r, uint32(0x1000+id))
			if err != nil {
				t.Errorf("stable%d: %v", id, err)
				return
			}
			stable[id-1] = sc
			if err := sc.sendRelay(begin, beginPayload); err != nil {
				t.Errorf("stable%d BEGIN: %v", id, err)
				return
			}
			if err := sc.awaitConnected(); err != nil {
				t.Errorf("stable%d: %v", id, err)
				return
			}
			var rec [4]byte
			for seq := 0; seq < cellsPerSender; seq++ {
				binary.BigEndian.PutUint32(rec[:], uint32(id)<<24|uint32(seq))
				if err := sc.sendRelay(data, rec[:]); err != nil {
					t.Errorf("stable%d cell %d: %v", id, seq, err)
					return
				}
			}
			end, _ := cell.EncodeControl(&cell.EndPayload{Reason: "done"})
			if err := sc.sendRelay(cell.RelayHeader{StreamID: 1, Cmd: cell.RelayEnd}, end); err != nil {
				t.Errorf("stable%d END: %v", id, err)
			}
		}(id)
	}

	// Churn: build, push cells, tear down with cells still in flight.
	var churnWG sync.WaitGroup
	for c := 0; c < churners; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			for it := 0; it < churnIters; it++ {
				sc, err := newStressClient(n, fmt.Sprintf("churn%d-%d", c, it), r, uint32(0x2000+c*churnIters+it))
				if err != nil {
					t.Errorf("churn%d/%d: %v", c, it, err)
					return
				}
				if err := sc.sendRelay(begin, beginPayload); err != nil {
					sc.conn.Close()
					continue
				}
				var rec [4]byte
				for seq := 0; seq < cellsPerChurn; seq++ {
					binary.BigEndian.PutUint32(rec[:], uint32(churnID)<<24|uint32(seq))
					sc.sendRelay(data, rec[:])
				}
				switch it % 3 {
				case 0:
					// Explicit DESTROY behind the in-flight cells.
					cell.Write(sc.conn, &cell.Cell{CircID: sc.circ, Cmd: cell.CmdDestroy})
				case 1:
					// Abrupt link failure.
				case 2:
					// Tampered cell: unrecognized at the last hop, so the
					// relay kills the circuit itself.
					bad := &cell.Cell{CircID: sc.circ, Cmd: cell.CmdRelay}
					for i := range bad.Payload {
						bad.Payload[i] = byte(i + it)
					}
					cell.Write(sc.conn, bad)
				}
				sc.conn.Close()
			}
		}(c)
	}

	stableWG.Wait()
	waitUntil := func(d time.Duration, cond func() bool) bool {
		deadline := time.Now().Add(d)
		for !cond() {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}
	for id := 1; id <= stableSenders; id++ {
		id := byte(id)
		if !waitUntil(30*time.Second, func() bool { return sink.count(id) == cellsPerSender }) {
			t.Errorf("sender %d: sink got %d/%d cells", id, sink.count(id), cellsPerSender)
		}
	}
	churnWG.Wait()

	// Closing the stable links must sweep their circuits out of the
	// relay's table; churn circuits are already gone.
	for _, sc := range stable {
		if sc != nil {
			sc.conn.Close()
		}
	}
	if !waitUntil(30*time.Second, func() bool { return len(circuitsOf(r)) == 0 }) {
		t.Errorf("circuits not torn down after their links closed: %d live", len(circuitsOf(r)))
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, e := range sink.errs {
		t.Error(e)
	}
}
