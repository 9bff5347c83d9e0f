package bento

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/enclave"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/pow"
	"github.com/bento-nfv/bento/internal/sandbox"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/stemfw"
	"github.com/bento-nfv/bento/internal/torclient"
	"github.com/bento-nfv/bento/internal/wire"
)

// ServerImage is the measured image of the Bento execution environment;
// only this (not user functions) requires attestation, per §5.4.
var ServerImage = []byte("bento-server-runtime-v1\nbscript-interpreter\nconclave-loader\n")

// ContainerImage returns the measured enclave image for a container image
// name; sandbox.New uses the same derivation when launching.
func ContainerImage(name string) []byte { return []byte("bento:" + name) }

// APIBinder installs additional host API objects into a freshly spawned
// container. The functions package provides the standard binder (http,
// zlib, os, bento, stem); the core server always installs api/fs/log.
type APIBinder func(b *Binding)

// Binding is the per-function wiring handed to API binders.
type Binding struct {
	Container *sandbox.Container
	Stem      *stemfw.Session
	Host      *simnet.Host
	Tor       *torclient.Client
	// Emit sends a payload frame to the client driving the current
	// invocation (api.send). It fails outside an invocation.
	Emit func([]byte) error
}

// ServerConfig configures a Bento server.
type ServerConfig struct {
	Host       *simnet.Host
	Tor        *torclient.Client // the node's onion proxy, for function Tor access
	Policy     *policy.Middlebox
	ExitPolicy *policy.ExitPolicy
	Platform   *enclave.Platform
	IAS        *enclave.AttestationService
	Bind       APIBinder
	Stdout     io.Writer
}

// Server is a running Bento server.
type Server struct {
	cfg     ServerConfig
	sup     *sandbox.Supervisor
	ln      net.Listener
	runtime *enclave.Enclave // the attested Bento execution environment
	reg     *obs.Registry
	om      serverMetrics

	mu         sync.Mutex
	functions  map[string]*runningFunction // invoke token -> fn
	shutdowns  map[string]*runningFunction // shutdown token -> fn
	spawnKeys  map[string]*runningFunction // idempotency key -> fn
	challenges map[string]bool             // outstanding single-use spawn puzzles

	progMu    sync.Mutex
	progCache map[[sha256.Size]byte]cachedProgram // source hash -> compiled program
	progBytes int                                 // source bytes behind progCache
}

// cachedProgram is a compiled program and the size of its source.
type cachedProgram struct {
	prog *interp.Program
	size int
}

// runningFunction is one spawned container plus its tokens. The container
// pointer is replaced by the restart watchdog, so all access goes through
// ctr/setCtr; tokens, manifest, and the file store survive restarts.
type runningFunction struct {
	invokeTok string
	shutTok   string
	man       *policy.Manifest
	spawnKey  string

	cmu          sync.Mutex
	container    *sandbox.Container
	code         string // last successfully uploaded source, re-run on restart
	restarts     int
	restartTimes []time.Duration // revival times inside the storm window
	permFailed   bool            // restart-storm guard gave up; no more revivals

	runMu  sync.Mutex // one invocation at a time
	emitMu sync.Mutex
	emit   func([]byte) error // current invocation's data sink
}

func (rf *runningFunction) ctr() *sandbox.Container {
	rf.cmu.Lock()
	defer rf.cmu.Unlock()
	return rf.container
}

func (rf *runningFunction) permanentlyFailed() bool {
	rf.cmu.Lock()
	defer rf.cmu.Unlock()
	return rf.permFailed
}

// setEmit installs (or clears) the active invocation's data sink.
func (rf *runningFunction) setEmit(f func([]byte) error) {
	rf.emitMu.Lock()
	rf.emit = f
	rf.emitMu.Unlock()
}

// Emit routes api.send payloads to the active invocation.
func (rf *runningFunction) Emit(p []byte) error {
	rf.emitMu.Lock()
	f := rf.emit
	rf.emitMu.Unlock()
	if f == nil {
		return errors.New("bento: api.send outside an invocation")
	}
	return f(p)
}

// NewServer starts a Bento server listening on the node's Bento port.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Host == nil {
		return nil, errors.New("bento: server needs a host")
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.DefaultMiddlebox()
	}
	reg := cfg.Host.Network().Obs()
	s := &Server{
		cfg:        cfg,
		sup:        sandbox.NewSupervisor(cfg.Policy, cfg.ExitPolicy, cfg.Platform, cfg.Stdout),
		reg:        reg,
		om:         newServerMetrics(reg),
		functions:  make(map[string]*runningFunction),
		shutdowns:  make(map[string]*runningFunction),
		spawnKeys:  make(map[string]*runningFunction),
		challenges: make(map[string]bool),
		progCache:  make(map[[sha256.Size]byte]cachedProgram),
	}
	if cfg.Platform != nil {
		rt, err := cfg.Platform.Launch(ServerImage, 8<<20)
		if err != nil {
			return nil, fmt.Errorf("bento: launching runtime enclave: %w", err)
		}
		s.runtime = rt
	}
	ln, err := cfg.Host.ServeRequests(Port, wire.SplitFrame(maxEnvelope, wire.MaxMessage), s.handle)
	if err != nil {
		if s.runtime != nil {
			s.runtime.Destroy()
		}
		return nil, err
	}
	s.ln = ln
	return s, nil
}

// Close stops the server and all functions.
func (s *Server) Close() error {
	s.ln.Close()
	s.mu.Lock()
	fns := make([]*runningFunction, 0, len(s.functions))
	for _, rf := range s.functions {
		fns = append(fns, rf)
	}
	s.functions = map[string]*runningFunction{}
	s.shutdowns = map[string]*runningFunction{}
	s.spawnKeys = map[string]*runningFunction{}
	s.mu.Unlock()
	for _, rf := range fns {
		s.teardown(rf)
	}
	s.sup.CloseAll()
	if s.runtime != nil {
		s.runtime.Destroy()
	}
	return nil
}

// FunctionCount reports running functions (used by experiments).
func (s *Server) FunctionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.functions)
}

// FunctionMemoryEstimate sums the live interpreter memory of all running
// functions (the §7.3 measurement). Call while functions are idle.
func (s *Server) FunctionMemoryEstimate() int64 {
	s.mu.Lock()
	fns := make([]*runningFunction, 0, len(s.functions))
	for _, rf := range s.functions {
		fns = append(fns, rf)
	}
	s.mu.Unlock()
	var total int64
	for _, rf := range fns {
		rf.runMu.Lock()
		total += rf.ctr().Machine().PeakMemory()
		rf.runMu.Unlock()
	}
	return total
}

// handle hands a request, through the request server's Hold
// (simnet.Host.ServeRequests), to a goroutine of its own, which holds the
// conn until it has answered: an op may park, in a host call or in the
// blocking Write that flow-controls api.send.
func (s *Server) handle(req []byte, w io.Writer) bool {
	frame := bytes.Clone(req) // req is lent for the call
	w.(interface{ Hold(func(io.Writer) bool) }).Hold(func(conn io.Writer) bool { return s.serve(frame, conn) })
	return true
}

// serve answers one request frame; false closes the conn.
func (s *Server) serve(frame []byte, conn io.Writer) bool {
	send := func(r *response) error { return wire.WriteFrame(conn, r, r.trailer) }
	var dec wire.Decoder
	var req request
	if dec.Unmarshal(frame, &req) != nil {
		return false
	}
	// The split cut the whole frame, so a request whose announced lengths
	// do not add up is refused without losing frame sync.
	if err := req.open(&dec); err != nil {
		return send(&response{Type: frameError, Error: err.Error()}) == nil
	}
	var err error
	switch req.Op {
	case opPolicy:
		err = send(&response{Type: frameOK, Policy: s.cfg.Policy})
	case opAttest:
		err = s.handleAttest(&req, send)
	case opChallenge:
		err = s.handleChallenge(send)
	case opSpawn:
		err = s.handleSpawn(&req, send)
	case opUpload:
		err = s.handleUpload(&req, send)
	case opInvoke:
		err = s.handleInvoke(&req, send)
	case opShutdown:
		err = s.handleShutdown(&req, send)
	default:
		err = send(&response{Type: frameError, Error: fmt.Sprintf("unknown op %q", req.Op)})
	}
	return err == nil
}

// handleAttest returns a fresh quote over the server runtime enclave,
// stapled with the IAS verification report (the OCSP-stapling variant of
// §5.4, so clients need not contact IAS themselves).
func (s *Server) handleAttest(req *request, send func(*response) error) error {
	if s.runtime == nil || s.cfg.IAS == nil {
		return send(&response{Type: frameError, Error: "attestation unavailable (no TEE)"})
	}
	report, err := s.attestEnclave(s.runtime, req.Nonce)
	if err != nil {
		return send(&response{Type: frameError, Error: err.Error()})
	}
	return send(&response{Type: frameOK, Report: report})
}

func (s *Server) attestEnclave(e *enclave.Enclave, nonce []byte) (*enclave.Report, error) {
	q, err := e.GenerateQuote(nonce)
	if err != nil {
		return nil, err
	}
	return s.cfg.IAS.Verify(q)
}

// maxOutstandingChallenges bounds puzzle-state memory (a flooder cannot
// exhaust the server by requesting challenges either).
const maxOutstandingChallenges = 1024

// spawnPoWTag namespaces spawn-puzzle digests.
const spawnPoWTag = "bento-spawn-pow"

func (s *Server) handleChallenge(send func(*response) error) error {
	var c [16]byte
	rand.Read(c[:])
	s.mu.Lock()
	if len(s.challenges) >= maxOutstandingChallenges {
		// Drop an arbitrary stale challenge to stay bounded.
		for k := range s.challenges {
			delete(s.challenges, k)
			break
		}
	}
	s.challenges[hex.EncodeToString(c[:])] = true
	s.mu.Unlock()
	return send(&response{Type: frameOK, Challenge: c[:]})
}

// checkSpawnPoW enforces the node's spawn puzzle, consuming the
// challenge (single use) on success.
func (s *Server) checkSpawnPoW(req *request) error {
	bits := s.cfg.Policy.SpawnPoWBits
	if bits <= 0 {
		return nil
	}
	key := hex.EncodeToString(req.Challenge)
	s.mu.Lock()
	known := s.challenges[key]
	if known {
		delete(s.challenges, key)
	}
	s.mu.Unlock()
	if !known {
		return errors.New("spawn requires a fresh proof-of-work challenge")
	}
	if !pow.Verify(spawnPoWTag, req.Challenge, req.PoWNonce, bits) {
		return fmt.Errorf("spawn proof-of-work invalid (need %d bits)", bits)
	}
	return nil
}

func (s *Server) handleSpawn(req *request, send func(*response) error) error {
	if req.Manifest == nil {
		return send(&response{Type: frameError, Error: "missing manifest"})
	}
	// Idempotent replay comes before the PoW check: the original spawn
	// already consumed its single-use challenge, so a retry of a lost
	// response must not be asked to pay again.
	if req.SpawnKey != "" {
		s.mu.Lock()
		prior := s.spawnKeys[req.SpawnKey]
		s.mu.Unlock()
		if prior != nil {
			resp := &response{
				Type:          frameTokens,
				InvokeToken:   prior.invokeTok,
				ShutdownToken: prior.shutTok,
			}
			if e := prior.ctr().Enclave(); e != nil && s.cfg.IAS != nil {
				report, err := s.attestEnclave(e, req.Nonce)
				if err != nil {
					return send(&response{Type: frameError, Error: err.Error()})
				}
				resp.Report = report
			}
			return send(resp)
		}
	}
	if err := s.checkSpawnPoW(req); err != nil {
		s.om.spawnRejects.Inc()
		return send(&response{Type: frameError, Error: err.Error()})
	}
	image := req.Image
	if image == "" {
		image = req.Manifest.Image
	}
	man := *req.Manifest
	man.Image = image
	container, err := s.sup.Spawn(&man)
	if err != nil {
		s.om.spawnRejects.Inc()
		return send(&response{Type: frameError, Error: err.Error()})
	}
	s.om.spawns.Inc()

	rf := &runningFunction{
		container: container,
		invokeTok: newToken(),
		shutTok:   newToken(),
		man:       &man,
		spawnKey:  req.SpawnKey,
	}
	s.bindAPI(rf)

	resp := &response{
		Type:          frameTokens,
		InvokeToken:   rf.invokeTok,
		ShutdownToken: rf.shutTok,
	}
	// For enclaved containers, staple an attestation of the container
	// enclave so the client can seal its upload to the enclave key.
	if container.Enclave() != nil && s.cfg.IAS != nil {
		report, err := s.attestEnclave(container.Enclave(), req.Nonce)
		if err != nil {
			s.sup.Remove(container.ID())
			return send(&response{Type: frameError, Error: err.Error()})
		}
		resp.Report = report
	}

	s.mu.Lock()
	s.functions[rf.invokeTok] = rf
	s.shutdowns[rf.shutTok] = rf
	if rf.spawnKey != "" {
		s.spawnKeys[rf.spawnKey] = rf
	}
	s.mu.Unlock()
	return send(resp)
}

// bindAPI installs the core API (api, fs, log) and any configured extras.
// The watchdog calls it again after each restart, so the bindings always
// close over the live container generation.
func (s *Server) bindAPI(rf *runningFunction) {
	c := rf.ctr()
	m := c.Machine()
	m.SetObs(s.reg)

	m.Bind("api", interp.NewObject("api", map[string]interp.BuiltinFn{
		"send": c.Mediate("tor.send", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("api.send takes 1 argument")
			}
			var p []byte
			switch v := args[0].(type) {
			case interp.Bytes:
				p = []byte(v)
			case interp.Str:
				p = []byte(v)
			default:
				return nil, fmt.Errorf("api.send requires bytes or str")
			}
			return interp.None, rf.Emit(p)
		}),
	}))

	m.Bind("fs", interp.NewObject("fs", map[string]interp.BuiltinFn{
		"write": c.Mediate("fs.write", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("fs.write takes (path, data)")
			}
			path, ok := args[0].(interp.Str)
			if !ok {
				return nil, fmt.Errorf("fs.write path must be str")
			}
			var data []byte
			switch v := args[1].(type) {
			case interp.Bytes:
				data = []byte(v)
			case interp.Str:
				data = []byte(v)
			default:
				return nil, fmt.Errorf("fs.write data must be bytes or str")
			}
			return interp.None, c.FS().Write(string(path), data)
		}),
		"read": c.Mediate("fs.read", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("fs.read takes (path)")
			}
			path, ok := args[0].(interp.Str)
			if !ok {
				return nil, fmt.Errorf("fs.read path must be str")
			}
			data, err := c.FS().Read(string(path))
			if err != nil {
				return nil, err
			}
			return interp.Bytes(data), nil
		}),
		"remove": c.Mediate("fs.write", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("fs.remove takes (path)")
			}
			path, ok := args[0].(interp.Str)
			if !ok {
				return nil, fmt.Errorf("fs.remove path must be str")
			}
			return interp.None, c.FS().Remove(string(path))
		}),
		"list": c.Mediate("fs.read", func(args []interp.Value) (interp.Value, error) {
			var elems []interp.Value
			for _, p := range c.FS().List() {
				elems = append(elems, interp.Str(p))
			}
			return &interp.List{Elems: elems}, nil
		}),
	}))

	m.Bind("clock", interp.NewObject("clock", map[string]interp.BuiltinFn{
		"now_ms": c.Mediate("clock.now", func(args []interp.Value) (interp.Value, error) {
			return interp.Int(s.cfg.Host.Clock().Now().Milliseconds()), nil
		}),
		"sleep_ms": c.Mediate("clock.sleep", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("clock.sleep_ms takes (ms)")
			}
			ms, ok := args[0].(interp.Int)
			if !ok || ms < 0 || ms > 600_000 {
				return nil, fmt.Errorf("clock.sleep_ms requires 0..600000")
			}
			s.cfg.Host.Clock().Sleep(time.Duration(ms) * time.Millisecond)
			return interp.None, nil
		}),
	}))

	if s.cfg.Bind != nil {
		var stem *stemfw.Session
		if s.cfg.Tor != nil {
			stem = stemfw.NewSession(s.cfg.Tor, c.Handles(), rf.man.Calls)
		}
		s.cfg.Bind(&Binding{
			Container: c,
			Stem:      stem,
			Host:      s.cfg.Host,
			Tor:       s.cfg.Tor,
			Emit:      rf.Emit,
		})
	}
}

// maxCachedSource bounds Server.progCache by the bytes of source its
// programs were compiled from. Compiled programs live outside every
// container's memory accounting and run to several times their source, so
// without a bound a tenant uploading distinct sources grows the relay's
// heap for as long as it runs.
const maxCachedSource = 4 << 20

// runCode executes function source in rf's container. The source is
// compiled to bytecode and the Program cached by source hash, so
// re-uploading identical code — or re-running it after a watchdog restart —
// skips lex/parse/compile entirely. Programs are machine-independent,
// making the cache safe to share across functions and containers.
func (s *Server) runCode(rf *runningFunction, code string) error {
	key := sha256.Sum256([]byte(code))
	s.progMu.Lock()
	cached, ok := s.progCache[key]
	s.progMu.Unlock()
	if ok {
		s.om.progCacheHits.Inc()
	} else {
		s.om.progCacheMisses.Inc()
		prog, err := rf.ctr().Machine().Compile(code)
		if err != nil {
			return err
		}
		cached = cachedProgram{prog, len(code)}
		s.progMu.Lock()
		for evict, old := range s.progCache { // arbitrary entries, until the new one fits
			if s.progBytes+cached.size <= maxCachedSource {
				break
			}
			delete(s.progCache, evict)
			s.progBytes -= old.size
		}
		if _, dup := s.progCache[key]; !dup {
			s.progCache[key] = cached
			s.progBytes += cached.size
		}
		s.progMu.Unlock()
	}
	return rf.ctr().RunProgram(cached.prog)
}

func (s *Server) handleUpload(req *request, send func(*response) error) error {
	rf := s.lookup(req.InvokeToken)
	if rf == nil {
		return send(&response{Type: frameError, Error: "bad invocation token"})
	}
	code := req.code
	if req.Sealed {
		e := rf.ctr().Enclave()
		if e == nil {
			return send(&response{Type: frameError, Error: "sealed upload to non-enclaved container"})
		}
		pt, err := otr.OpenSealed(e.Key(), code)
		if err != nil {
			return send(&response{Type: frameError, Error: "sealed upload: " + err.Error()})
		}
		code = pt
	}
	rf.runMu.Lock()
	err := s.runCode(rf, string(code))
	if err == nil {
		s.om.uploads.Inc()
		rf.cmu.Lock()
		rf.code = string(code)
		rf.cmu.Unlock()
	} else {
		s.om.uploadFailures.Inc()
	}
	var restarted bool
	if err != nil {
		restarted = s.maybeRestart(rf, err)
	}
	rf.runMu.Unlock()
	if errors.Is(err, sandbox.ErrTenantPanic) {
		s.reapPanicked(rf)
	}
	if err != nil {
		return send(&response{Type: frameError, Error: err.Error(), Restarted: restarted,
			PermFailed: rf.permanentlyFailed()})
	}
	return send(&response{Type: frameOK})
}

func (s *Server) handleInvoke(req *request, send func(*response) error) error {
	rf := s.lookup(req.InvokeToken)
	if rf == nil {
		return send(&response{Type: frameError, Error: "bad invocation token"})
	}
	// Queue depth counts invocations from the moment they contend for
	// the function's run lock, so a backed-up function shows up as
	// depth, not just latency; invoke_ns spans the same interval
	// (queue wait + execution) in virtual time.
	start := s.now()
	s.om.invokeQueue.Add(1)
	rf.runMu.Lock()
	rf.setEmit(func(p []byte) error {
		r := &response{Type: frameData, PayloadLen: len(p)}
		r.trailer.AddBytes(p)
		return send(r)
	})
	result, err := rf.ctr().Call(req.Function, req.args...)
	rf.setEmit(nil)
	s.om.invokeQueue.Add(-1)
	s.om.invokeNs.ObserveDuration(s.now() - start)
	s.om.invokes.Inc()
	if err != nil {
		s.om.invokeErrors.Inc()
	}
	var restarted bool
	if err != nil {
		restarted = s.maybeRestart(rf, err)
	}
	rf.runMu.Unlock()
	if errors.Is(err, sandbox.ErrTenantPanic) {
		s.reapPanicked(rf)
		return send(&response{Type: frameError, Error: err.Error()})
	}

	done := &response{Type: frameDone, Restarted: restarted}
	if err != nil {
		done.Error = err.Error()
		done.PermFailed = rf.permanentlyFailed()
	} else if result != nil {
		w, werr := encodeValue(result, &done.trailer)
		if werr != nil {
			return send(&response{Type: frameDone, Error: werr.Error()})
		}
		done.Result = &w
	}
	return send(done)
}

func (s *Server) handleShutdown(req *request, send func(*response) error) error {
	s.mu.Lock()
	rf := s.shutdowns[req.ShutdownToken]
	if rf != nil {
		s.unregisterLocked(rf)
	}
	s.mu.Unlock()
	if rf == nil {
		// The invocation token explicitly must NOT grant shutdown (§5.3).
		return send(&response{Type: frameError, Error: "bad shutdown token"})
	}
	s.om.shutdowns.Inc()
	s.teardown(rf)
	return send(&response{Type: frameOK})
}

// unregisterLocked drops rf's tokens, so no request reaches it again.
// s.mu must be held.
func (s *Server) unregisterLocked(rf *runningFunction) {
	delete(s.shutdowns, rf.shutTok)
	delete(s.functions, rf.invokeTok)
	if rf.spawnKey != "" {
		delete(s.spawnKeys, rf.spawnKey)
	}
}

// reapPanicked ends a function whose code panicked, as the crash of its
// process would: its tokens stop working and its container is torn down.
// The watchdog does not revive it, since the same code would panic again.
func (s *Server) reapPanicked(rf *runningFunction) {
	s.om.tenantPanics.Inc()
	s.mu.Lock()
	s.unregisterLocked(rf)
	s.mu.Unlock()
	s.teardown(rf)
}

func (s *Server) teardown(rf *runningFunction) {
	c := rf.ctr()
	c.Kill()
	s.sup.Remove(c.ID())
}

// now reads the deployment's virtual clock, so invoke latencies share
// the time domain of every other *_ns series.
func (s *Server) now() time.Duration {
	return s.cfg.Host.Network().Clock().Now()
}

func (s *Server) lookup(invokeTok string) *runningFunction {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.functions[invokeTok]
}

func newToken() string {
	var b [16]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
