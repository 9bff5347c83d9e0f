package relay

import (
	"fmt"
	"io"

	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/wire"
)

// HSDirPort is the port HSDir relays serve hidden-service descriptors on.
const HSDirPort = 9030

type hsdirRequest struct {
	Op         string `json:"op"` // "store" or "fetch"
	ServiceID  string `json:"service_id"`
	Descriptor []byte `json:"descriptor,omitempty"`
}

type hsdirResponse struct {
	OK         bool   `json:"ok"`
	Error      string `json:"error,omitempty"`
	Descriptor []byte `json:"descriptor,omitempty"`
}

// ServeHSDir starts the relay's hidden-service directory listener. Only
// relays with the HSDir flag call this. Stored descriptors are opaque
// bytes; signature validation happens in the hs package, which owns the
// descriptor format.
func (r *Relay) ServeHSDir() error {
	ln, err := r.host.ServeRequests(HSDirPort, wire.SplitFrame(maxHSDirRequest, 0), r.handleHSDir)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.hsdirLn = ln
	closed := r.closed
	r.mu.Unlock()
	if closed {
		ln.Close()
	}
	return nil
}

// maxHSDirRequest bounds one request the HSDir accepts. The largest, a
// store of one signed service descriptor, is under 1 KiB.
const maxHSDirRequest = 64 << 10

// maxHSDirResponse bounds one HSDir answer a client takes in. The largest,
// a fetch, echoes one descriptor that was stored by a request within
// maxHSDirRequest, so twice that covers it and the envelope around it; a
// hostile HSDir cannot make the client read more.
const maxHSDirResponse = 2 * maxHSDirRequest

// handleHSDir answers one request frame, in delivery context.
func (r *Relay) handleHSDir(frame []byte, w io.Writer) bool {
	var req hsdirRequest
	if err := new(wire.Decoder).Unmarshal(frame, &req); err != nil {
		return false
	}
	var resp hsdirResponse
	switch req.Op {
	case "store":
		if req.ServiceID == "" || len(req.Descriptor) == 0 {
			resp.Error = "missing service ID or descriptor"
			break
		}
		r.mu.Lock()
		r.hsdir[req.ServiceID] = req.Descriptor
		r.mu.Unlock()
		resp.OK = true
	case "fetch":
		r.mu.Lock()
		desc, ok := r.hsdir[req.ServiceID]
		r.mu.Unlock()
		if !ok {
			resp.Error = "no descriptor for " + req.ServiceID
			break
		}
		resp.OK = true
		resp.Descriptor = desc
	default:
		resp.Error = fmt.Sprintf("unknown op %q", req.Op)
	}
	return wire.WriteJSON(w, &resp) == nil
}

// StoreHSDescriptor uploads a hidden-service descriptor to the HSDir at
// dirAddr ("host:port") from the given host.
func StoreHSDescriptor(host *simnet.Host, dirAddr, serviceID string, descriptor []byte) error {
	return hsdirRoundTrip(host, dirAddr, &hsdirRequest{
		Op: "store", ServiceID: serviceID, Descriptor: descriptor,
	}, nil)
}

// FetchHSDescriptor retrieves a hidden-service descriptor from the HSDir.
func FetchHSDescriptor(host *simnet.Host, dirAddr, serviceID string) ([]byte, error) {
	var desc []byte
	err := hsdirRoundTrip(host, dirAddr, &hsdirRequest{
		Op: "fetch", ServiceID: serviceID,
	}, &desc)
	return desc, err
}

func hsdirRoundTrip(host *simnet.Host, dirAddr string, req *hsdirRequest, desc *[]byte) error {
	conn, err := host.Dial(dirAddr)
	if err != nil {
		return fmt.Errorf("relay: dialing HSDir: %w", err)
	}
	defer conn.Close()
	if err := wire.WriteJSON(conn, req); err != nil {
		return err
	}
	var resp hsdirResponse
	if err := wire.NewFrameDecoder(conn, maxHSDirResponse, 0).Decode(&resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("relay: HSDir %s: %s", req.Op, resp.Error)
	}
	if desc != nil {
		*desc = resp.Descriptor
	}
	return nil
}
