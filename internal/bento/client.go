package bento

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"

	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/enclave"
	"github.com/bento-nfv/bento/internal/hs"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/pow"
	"github.com/bento-nfv/bento/internal/torclient"
	"github.com/bento-nfv/bento/internal/wire"
)

// Client discovers Bento nodes and drives functions on them. All server
// interactions happen over Tor circuits, preserving the user's anonymity
// (§6.3).
type Client struct {
	Tor *torclient.Client
	// IASKey is the pinned attestation-service key used to check stapled
	// reports. Nil disables attestation checking (plain containers only).
	IASKey ed25519.PublicKey
}

// NewClient creates a Bento client on top of an onion proxy.
func NewClient(tor *torclient.Client, iasKey ed25519.PublicKey) *Client {
	return &Client{Tor: tor, IASKey: iasKey}
}

// Nodes lists Bento-capable relays from the consensus whose middlebox
// policies permit every call the caller needs.
func (c *Client) Nodes(calls ...string) []*dirauth.Descriptor {
	return c.Tor.Consensus().BentoNodes(calls...)
}

// PickNode chooses a Bento node at random among those supporting calls.
func (c *Client) PickNode(calls ...string) (*dirauth.Descriptor, error) {
	nodes := c.Nodes(calls...)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("bento: no node supports %v", calls)
	}
	return nodes[c.Tor.Intn(len(nodes))], nil
}

// Conn is a connection to one Bento server, multiplexing protocol
// requests over a single Tor stream.
type Conn struct {
	client *Client
	stream net.Conn
	circ   *torclient.Circuit // nil when attached to an existing stream
	mu     sync.Mutex
	dec    *wire.Decoder // lazy; reuses one read buffer across round trips (guarded by mu)

	policyMu     sync.Mutex
	cachedPolicy *policy.Middlebox
}

// ErrTransport wraps failures of the Tor transport under a Bento
// connection — circuit death, severed streams, timeouts. Operations
// failing with it did not necessarily reach the server; idempotent ones
// may be retried on a fresh connection (which the Session layer does).
var ErrTransport = errors.New("bento: transport failure")

// ErrRestarted wraps invocation errors for which the server reported its
// watchdog already revived the function: the same tokens remain valid and
// the invocation may simply be retried.
var ErrRestarted = errors.New("bento: function restarted by server")

// ErrPermanentFailure wraps errors for which the server reported the
// function permanently failed: its restart-storm guard gave up on a
// crash-looping function, so retries against this token cannot succeed.
// A control plane seeing it should replace the replica.
var ErrPermanentFailure = errors.New("bento: function permanently failed")

// Connect reaches the Bento server co-resident with the given relay by
// building a circuit that exits at that relay and connecting to the
// server via localhost (the §5 deployment mode that needs no changes to
// Tor). Relays on the Tor client's avoid list are skipped when choosing
// the two leading hops, so reconnects route around recent failures.
func (c *Client) Connect(node *dirauth.Descriptor) (*Conn, error) {
	cons := c.Tor.Consensus()
	var path []*dirauth.Descriptor
	pool := c.Tor.FilterHealthy(dirauth.PreferFast(cons.Relays, node.Nickname))
	switch {
	case len(pool) >= 2:
		i := c.Tor.Intn(len(pool))
		j := c.Tor.Intn(len(pool) - 1)
		if j >= i {
			j++
		}
		path = []*dirauth.Descriptor{pool[i], pool[j], node}
	case len(pool) == 1:
		path = []*dirauth.Descriptor{pool[0], node}
	default:
		path = []*dirauth.Descriptor{node}
	}
	circ, err := c.Tor.BuildCircuit(path)
	if err != nil {
		return nil, fmt.Errorf("%w: circuit to %s: %v", ErrTransport, node.Nickname, err)
	}
	stream, err := circ.OpenStream(fmt.Sprintf("localhost:%d", Port))
	if err != nil {
		circ.Close()
		return nil, fmt.Errorf("%w: connecting to Bento server on %s: %v", ErrTransport, node.Nickname, err)
	}
	return &Conn{client: c, stream: stream, circ: circ}, nil
}

// ConnectHidden reaches a Bento server running as a hidden service.
func (c *Client) ConnectHidden(serviceID string) (*Conn, error) {
	conn, err := hs.Dial(c.Tor, serviceID)
	if err != nil {
		return nil, err
	}
	return &Conn{client: c, stream: conn}, nil
}

// AttachStream wraps an existing connection (e.g. a direct simnet dial in
// tests) as a Bento protocol connection.
func (c *Client) AttachStream(stream net.Conn) *Conn {
	return &Conn{client: c, stream: stream}
}

// Close tears down the connection and its circuit.
func (co *Conn) Close() error {
	co.stream.Close()
	if co.circ != nil {
		return co.circ.Close()
	}
	return nil
}

// roundTrip sends a request and reads frames until a terminal frame,
// lending the payload of any data frame to onData for the call.
// Stream-level failures, a malformed frame among them, come back wrapped
// in ErrTransport so callers can tell a dead connection (retry on a fresh
// one) from a server-reported error (don't).
func (co *Conn) roundTrip(req *request, onData func([]byte)) (*response, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if err := wire.WriteFrame(co.stream, req, req.trailer); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTransport, err)
	}
	if co.dec == nil {
		co.dec = newDecoder(co.stream)
	}
	for {
		var resp response
		err := co.dec.Decode(&resp)
		if err == nil {
			err = resp.open(co.dec)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTransport, err)
		}
		switch resp.Type {
		case frameData:
			if onData != nil {
				onData(resp.payload)
			}
		case frameError:
			if resp.PermFailed {
				return &resp, fmt.Errorf("%w: %s", ErrPermanentFailure, resp.Error)
			}
			if resp.Restarted {
				return &resp, fmt.Errorf("%w: %s", ErrRestarted, resp.Error)
			}
			return &resp, errors.New("bento: " + resp.Error)
		default:
			return &resp, nil
		}
	}
}

// Policy fetches the node's middlebox policy (the function on a
// well-known port from §5.5).
func (co *Conn) Policy() (*policy.Middlebox, error) {
	resp, err := co.roundTrip(&request{Op: opPolicy}, nil)
	if err != nil {
		return nil, err
	}
	if resp.Policy == nil {
		return nil, errors.New("bento: server returned no policy")
	}
	return resp.Policy, nil
}

// Attest verifies the server's Bento runtime enclave via a stapled IAS
// report, returning the report.
func (co *Conn) Attest() (*enclave.Report, error) {
	nonce := make([]byte, 16)
	rand.Read(nonce)
	resp, err := co.roundTrip(&request{Op: opAttest, Nonce: nonce}, nil)
	if err != nil {
		return nil, err
	}
	if co.client.IASKey == nil {
		return nil, errors.New("bento: no IAS key pinned")
	}
	if err := enclave.CheckReport(resp.Report, co.client.IASKey, enclave.Measure(ServerImage), nonce); err != nil {
		return nil, err
	}
	return resp.Report, nil
}

// Function is a spawned function on a Bento server.
type Function struct {
	conn      *Conn
	image     string
	invokeTok string
	shutTok   string
	report    *enclave.Report // container attestation, for SGX images
}

// nodePolicy fetches (and caches) the node's middlebox policy.
func (co *Conn) nodePolicy() (*policy.Middlebox, error) {
	co.policyMu.Lock()
	cached := co.cachedPolicy
	co.policyMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	pol, err := co.Policy()
	if err != nil {
		return nil, err
	}
	co.policyMu.Lock()
	co.cachedPolicy = pol
	co.policyMu.Unlock()
	return pol, nil
}

// spawnPoWTagClient mirrors the server's spawn-puzzle namespace.
const spawnPoWTagClient = "bento-spawn-pow"

// solveSpawnChallenge pays a spawn puzzle over the given challenge.
func solveSpawnChallenge(challenge []byte, bits int) (uint64, error) {
	return pow.Solve(spawnPoWTagClient, challenge, bits)
}

// solveSpawnPuzzle obtains a fresh challenge and pays the node's spawn
// price, if it advertises one.
func (co *Conn) solveSpawnPuzzle(req *request) error {
	pol, err := co.nodePolicy()
	if err != nil {
		return err
	}
	if pol.SpawnPoWBits <= 0 {
		return nil
	}
	resp, err := co.roundTrip(&request{Op: opChallenge}, nil)
	if err != nil {
		return err
	}
	if len(resp.Challenge) == 0 {
		return errors.New("bento: server issued no challenge")
	}
	nonce, err := pow.Solve(spawnPoWTagClient, resp.Challenge, pol.SpawnPoWBits)
	if err != nil {
		return err
	}
	req.Challenge = resp.Challenge
	req.PoWNonce = nonce
	return nil
}

// Spawn creates a container for the given manifest, paying the node's
// spawn puzzle when its policy demands one. For the SGX image the
// returned Function carries a verified attestation of the container
// enclave; Upload will seal code to it.
func (co *Conn) Spawn(man *policy.Manifest) (*Function, error) {
	return co.SpawnKeyed(man, "")
}

// SpawnKeyed spawns with an idempotency key: retrying with the same key
// (e.g. after a transport failure that ate the response) returns the
// original function's tokens instead of creating a duplicate container.
func (co *Conn) SpawnKeyed(man *policy.Manifest, spawnKey string) (*Function, error) {
	nonce := make([]byte, 16)
	rand.Read(nonce)
	req := &request{Op: opSpawn, Image: man.Image, Manifest: man, Nonce: nonce, SpawnKey: spawnKey}
	if err := co.solveSpawnPuzzle(req); err != nil {
		return nil, err
	}
	resp, err := co.roundTrip(req, nil)
	if err != nil {
		return nil, err
	}
	if resp.Type != frameTokens {
		return nil, fmt.Errorf("bento: unexpected spawn response %q", resp.Type)
	}
	f := &Function{
		conn:      co,
		image:     man.Image,
		invokeTok: resp.InvokeToken,
		shutTok:   resp.ShutdownToken,
	}
	if man.Image == "python-op-sgx" {
		if co.client.IASKey == nil {
			return nil, errors.New("bento: SGX image requires a pinned IAS key")
		}
		if err := enclave.CheckReport(resp.Report, co.client.IASKey,
			enclave.Measure(ContainerImage(man.Image)), nonce); err != nil {
			f.Shutdown()
			return nil, fmt.Errorf("bento: container attestation: %w", err)
		}
		f.report = resp.Report
	}
	return f, nil
}

// InvokeToken returns the shareable invocation capability (§5.3: sharing
// it shares use of the function but not shutdown rights).
func (f *Function) InvokeToken() string { return f.invokeTok }

// ShutdownToken returns the exclusive shutdown capability.
func (f *Function) ShutdownToken() string { return f.shutTok }

// AttachFunction binds to an already-running function via a shared
// invocation token.
func (co *Conn) AttachFunction(invokeToken string) *Function {
	return &Function{conn: co, invokeTok: invokeToken}
}

// Upload sends function source code. For attested SGX containers the
// code is sealed to the enclave channel key, so the operator never sees
// it in plaintext.
func (f *Function) Upload(code string) error {
	req := &request{Op: opUpload, InvokeToken: f.invokeTok, CodeLen: len(code)}
	if f.report != nil {
		sealed, err := otr.SealTo(f.report.Quote.ChannelKey, []byte(code))
		if err != nil {
			return err
		}
		req.CodeLen, req.Sealed = len(sealed), true
		req.trailer.AddBytes(sealed)
	} else {
		req.trailer.AddString(code)
	}
	_, err := f.conn.roundTrip(req, nil)
	return err
}

// Invoke calls a function, returning the concatenation of api.send
// payloads and the function's return value.
func (f *Function) Invoke(fn string, args ...interp.Value) ([]byte, interp.Value, error) {
	var out []byte
	result, err := f.InvokeStream(fn, args, func(p []byte) {
		out = append(out, p...)
	})
	return out, result, err
}

// InvokeStream calls a function, delivering api.send payloads to onData
// as they are produced (streaming responses, e.g. progressive downloads).
// A payload is valid only during the call; onData copies what it keeps.
func (f *Function) InvokeStream(fn string, args []interp.Value, onData func([]byte)) (interp.Value, error) {
	req := &request{Op: opInvoke, InvokeToken: f.invokeTok, Function: fn, Args: make([]wireValu, len(args))}
	for i, a := range args {
		var err error
		if req.Args[i], err = encodeValue(a, &req.trailer); err != nil {
			return nil, err
		}
	}
	resp, err := f.conn.roundTrip(req, onData)
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		if resp.PermFailed {
			return nil, fmt.Errorf("%w: %s", ErrPermanentFailure, resp.Error)
		}
		if resp.Restarted {
			// The server's watchdog already revived the function; the
			// same token works, so the caller may just try again.
			return nil, fmt.Errorf("%w: %s", ErrRestarted, resp.Error)
		}
		return nil, errors.New("bento: " + resp.Error)
	}
	if resp.result == nil {
		return interp.None, nil
	}
	return resp.result, nil
}

// ShutdownByToken terminates a function by its shutdown token directly
// (used when only the token, not a Function, is held).
func (co *Conn) ShutdownByToken(shutdownToken string) error {
	_, err := co.roundTrip(&request{Op: opShutdown, ShutdownToken: shutdownToken}, nil)
	return err
}

// Shutdown terminates the function using the shutdown token.
func (f *Function) Shutdown() error {
	if f.shutTok == "" {
		return errors.New("bento: no shutdown token (attached via invocation token)")
	}
	_, err := f.conn.roundTrip(&request{Op: opShutdown, ShutdownToken: f.shutTok}, nil)
	return err
}
