package dirauth

import (
	"crypto/ed25519"
	"fmt"
	"io"
	"net"

	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/wire"
)

// DefaultPort is the port directory authorities listen on.
const DefaultPort = 7000

type request struct {
	Op         string      `json:"op"` // "publish" or "consensus"
	Descriptor *Descriptor `json:"descriptor,omitempty"`
}

type response struct {
	OK        bool       `json:"ok"`
	Error     string     `json:"error,omitempty"`
	Consensus *Consensus `json:"consensus,omitempty"`
}

// Server exposes an Authority over the emulated network.
type Server struct {
	auth *Authority
	ln   net.Listener

	// Server-side request counters, nil-safe when the network carries no
	// telemetry. All authorities on one network share the same names.
	publishes       *obs.Counter
	publishRejects  *obs.Counter
	consensusServes *obs.Counter
}

// Serve starts a directory server on the given host. It returns once the
// listener is accepting; it serves with no goroutine of its own.
func Serve(host *simnet.Host, auth *Authority) (*Server, error) {
	reg := host.Network().Obs()
	s := &Server{
		auth:            auth,
		publishes:       reg.Counter("dirauth.publishes"),
		publishRejects:  reg.Counter("dirauth.publish_rejects"),
		consensusServes: reg.Counter("dirauth.consensus_serves"),
	}
	ln, err := host.ServeRequests(DefaultPort, wire.SplitFrame(maxRequest, 0), s.handle)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return s, nil
}

// Close stops the server.
func (s *Server) Close() error { return s.ln.Close() }

// maxRequest bounds one request the server accepts. The largest, a
// publish of one relay descriptor, is under 1 KiB.
const maxRequest = 64 << 10

// Responses are bounded by what the client asked for, so a hostile
// authority cannot make it take in more than its role needs.
const (
	// maxPublishResponse: a publish is answered with ok and at most a
	// one-line error.
	maxPublishResponse = 4 << 10
	// maxConsensusResponse: a consensus is one descriptor per relay, each
	// under 1 KiB, so this holds about 8 000 relays — more than Tor's
	// own network and hundreds of times any consensus the emulator builds.
	maxConsensusResponse = 8 << 20
)

// handle answers one request frame, in delivery context.
func (s *Server) handle(frame []byte, w io.Writer) bool {
	var req request
	if err := new(wire.Decoder).Unmarshal(frame, &req); err != nil {
		return false
	}
	var resp response
	switch req.Op {
	case "publish":
		if err := s.auth.Publish(req.Descriptor); err != nil {
			resp.Error = err.Error()
			s.publishRejects.Inc()
		} else {
			resp.OK = true
			s.publishes.Inc()
		}
	case "consensus":
		c, err := s.auth.Consensus()
		if err != nil {
			resp.Error = err.Error()
		} else {
			resp.OK = true
			resp.Consensus = c
			s.consensusServes.Inc()
		}
	default:
		resp.Error = fmt.Sprintf("unknown op %q", req.Op)
	}
	return wire.WriteJSON(w, &resp) == nil
}

// Publish sends a descriptor to the directory server at dirAddr from the
// given host.
func Publish(host *simnet.Host, dirAddr string, d *Descriptor) error {
	conn, err := host.Dial(dirAddr)
	if err != nil {
		return fmt.Errorf("dirauth: dialing authority: %w", err)
	}
	defer conn.Close()
	if err := wire.WriteJSON(conn, &request{Op: "publish", Descriptor: d}); err != nil {
		return err
	}
	var resp response
	if err := wire.NewFrameDecoder(conn, maxPublishResponse, 0).Decode(&resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("dirauth: publish rejected: %s", resp.Error)
	}
	return nil
}

// FetchConsensus retrieves and verifies the consensus from dirAddr.
// authority is the expected consensus-signing key.
func FetchConsensus(host *simnet.Host, dirAddr string, authority ed25519.PublicKey) (*Consensus, error) {
	reg := host.Network().Obs()
	c, err := fetchConsensus(host, dirAddr, authority)
	if err != nil {
		reg.Counter("dirauth.consensus_fetch_failures").Inc()
	} else {
		reg.Counter("dirauth.consensus_fetches").Inc()
	}
	return c, err
}

func fetchConsensus(host *simnet.Host, dirAddr string, authority ed25519.PublicKey) (*Consensus, error) {
	conn, err := host.Dial(dirAddr)
	if err != nil {
		return nil, fmt.Errorf("dirauth: dialing authority: %w", err)
	}
	defer conn.Close()
	if err := wire.WriteJSON(conn, &request{Op: "consensus"}); err != nil {
		return nil, err
	}
	var resp response
	if err := wire.NewFrameDecoder(conn, maxConsensusResponse, 0).Decode(&resp); err != nil {
		return nil, err
	}
	if !resp.OK || resp.Consensus == nil {
		return nil, fmt.Errorf("dirauth: consensus fetch failed: %s", resp.Error)
	}
	if err := resp.Consensus.Verify(authority); err != nil {
		return nil, err
	}
	return resp.Consensus, nil
}
