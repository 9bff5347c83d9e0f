// Package functions provides the standard Bento function library: the
// host API surface bound into every container (requests/http, zlib, os,
// tor, stem, bento, erasure), the bscript source of the paper's functions
// (Browser §7, LoadBalancer §8, Cover §9.1, Dropbox §9.2, Shard §9.3),
// and Go-side deployment helpers.
package functions

import (
	"bytes"
	"compress/zlib"
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/fountain"
	"github.com/bento-nfv/bento/internal/hs"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/webfarm"
	mrand "math/rand"
)

// StandardBinder returns the bento.APIBinder installing the full function
// API. iasKey may be nil when composition never targets SGX containers.
func StandardBinder() bento.APIBinder {
	zc := newZlibCodecs() // shared by every container this binder serves
	return func(b *bento.Binding) {
		st := &apiState{b: b}
		m := b.Container.Machine()
		m.Bind("requests", st.requestsObject())
		m.Bind("http", st.requestsObject())
		m.Bind("zlib", zlibObject(zc))
		m.Bind("os", osObject())
		m.Bind("erasure", erasureObject())
		if b.Stem != nil {
			m.Bind("tor", st.torObject())
			m.Bind("stem", st.stemObject())
			m.Bind("bento", st.bentoObject())
		}
	}
}

// apiState holds per-function host-side state (stream handles, async
// invocations, composition connections).
type apiState struct {
	b *bento.Binding

	mu       sync.Mutex
	nextID   int
	conns    map[int]*composeConn
	asyncs   map[int]chan asyncResult
	hsIdents map[int]*hs.Identity
}

type composeConn struct {
	node string
	conn *bento.Conn
	cli  *bento.Client
}

type asyncResult struct {
	data []byte
	err  error
}

func (st *apiState) alloc() int {
	st.nextID++
	return st.nextID
}

// --- requests / http ---------------------------------------------------------

// requestsObject exposes requests.get(url) — the web client Browser runs
// at the exit (§7.2). Direct network access is mediated by the
// container's iptables-style filter.
func (st *apiState) requestsObject() *interp.Object {
	c := st.b.Container
	get := c.Mediate("net.dial", func(args []interp.Value) (interp.Value, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("get(url) requires a URL")
		}
		url, ok := args[0].(interp.Str)
		if !ok {
			return nil, fmt.Errorf("get() URL must be str")
		}
		domain, path := splitURL(string(url))
		if err := c.CheckNet(domain, webfarm.Port); err != nil {
			return nil, err
		}
		var body []byte
		var err error
		if path == "/" {
			body, err = webfarm.FetchPage(st.b.Host.Dial, domain)
		} else {
			body, err = webfarm.Get(st.b.Host.Dial, domain, path)
		}
		if err != nil {
			return nil, err
		}
		return interp.Bytes(body), nil
	})
	return interp.NewObject("requests", map[string]interp.BuiltinFn{"get": get})
}

func splitURL(url string) (domain, path string) {
	url = strings.TrimPrefix(url, "http://")
	if i := strings.IndexByte(url, '/'); i >= 0 {
		return url[:i], url[i:]
	}
	return url, "/"
}

// --- zlib --------------------------------------------------------------------

// zlibKeep is how many idle compressors and decompressors a zlibCodecs
// parks. A deflate compressor is ~650 KB of tables and window, built and
// zeroed by every zlib.NewWriter — most of what one Browser invocation
// used to allocate. A fixed free list rather than a sync.Pool: at this
// size the collector runs every couple of invocations and would empty a
// pool before its second use.
const zlibKeep = 2

// maxInflate caps what one decompress call may produce.
const maxInflate = 64 << 20

// zlibCodecs recycles zlib writers and readers through Reset, which
// restores exactly the state NewWriter/NewReader would build, so output
// is byte-identical to a fresh codec's. Each channel parks up to zlibKeep
// idle codecs: a caller that finds it empty builds a fresh one, one that
// finds it full drops its own. Safe for concurrent use.
type zlibCodecs struct {
	writers chan *zlib.Writer
	readers chan io.ReadCloser // each also a zlib.Resetter
}

func newZlibCodecs() *zlibCodecs {
	return &zlibCodecs{
		writers: make(chan *zlib.Writer, zlibKeep),
		readers: make(chan io.ReadCloser, zlibKeep),
	}
}

func (zc *zlibCodecs) compress(data []byte) []byte {
	// Deflate's worst case is stored blocks: 5 bytes per 64 KB block,
	// plus the zlib header and checksum.
	buf := bytes.NewBuffer(make([]byte, 0, len(data)+len(data)/64+64))
	var w *zlib.Writer
	select {
	case w = <-zc.writers:
		w.Reset(buf)
	default:
		w = zlib.NewWriter(buf)
	}
	w.Write(data)
	w.Close()
	select {
	case zc.writers <- w:
	default:
	}
	return buf.Bytes()
}

// decompress inflates the zlib stream at the start of payload, up to
// maxInflate bytes; whatever follows the stream is ignored.
func (zc *zlibCodecs) decompress(payload []byte) ([]byte, error) {
	src := bytes.NewReader(payload)
	var r io.ReadCloser
	var err error
	select {
	case r = <-zc.readers:
		err = r.(zlib.Resetter).Reset(src, nil)
	default:
		if r, err = zlib.NewReader(src); err != nil {
			return nil, err
		}
	}
	defer func() { // a reader that failed is as good as new after Reset
		select {
		case zc.readers <- r:
		default:
		}
	}()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(len(payload))
	if _, err := out.ReadFrom(io.LimitReader(r, maxInflate)); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

func zlibObject(zc *zlibCodecs) *interp.Object {
	return interp.NewObject("zlib", map[string]interp.BuiltinFn{
		"compress": func(args []interp.Value) (interp.Value, error) {
			data, err := bytesArg(args, 0, "compress")
			if err != nil {
				return nil, err
			}
			return interp.Bytes(zc.compress(data)), nil
		},
		"decompress": func(args []interp.Value) (interp.Value, error) {
			data, err := bytesArg(args, 0, "decompress")
			if err != nil {
				return nil, err
			}
			out, err := zc.decompress(data)
			if err != nil {
				return nil, fmt.Errorf("zlib: %w", err)
			}
			return interp.Bytes(out), nil
		},
	})
}

// --- os ----------------------------------------------------------------------

func osObject() *interp.Object {
	return interp.NewObject("os", map[string]interp.BuiltinFn{
		"urandom": func(args []interp.Value) (interp.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("urandom(n)")
			}
			n, ok := args[0].(interp.Int)
			if !ok || n < 0 || n > 64<<20 {
				return nil, fmt.Errorf("urandom size out of range")
			}
			out := make([]byte, n)
			rand.Read(out)
			return interp.Bytes(out), nil
		},
	})
}

// --- erasure (Shard's coding core) -------------------------------------------

func erasureObject() *interp.Object {
	return interp.NewObject("erasure", map[string]interp.BuiltinFn{
		"encode": func(args []interp.Value) (interp.Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("encode(data, k, n)")
			}
			data, err := bytesArg(args, 0, "encode")
			if err != nil {
				return nil, err
			}
			k, ok1 := args[1].(interp.Int)
			n, ok2 := args[2].(interp.Int)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("encode k, n must be ints")
			}
			shards, err := fountain.Encode(data, int(k), int(n), mrand.New(mrand.NewSource(int64(k)<<8|int64(n))))
			if err != nil {
				return nil, err
			}
			out := &interp.List{}
			for _, s := range shards {
				out.Elems = append(out.Elems, interp.Bytes(s.Marshal()))
			}
			return out, nil
		},
		"decode": func(args []interp.Value) (interp.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("decode(shards)")
			}
			l, ok := args[0].(*interp.List)
			if !ok {
				return nil, fmt.Errorf("decode takes a list of shard bytes")
			}
			var shards []*fountain.Shard
			for _, e := range l.Elems {
				b, ok := e.(interp.Bytes)
				if !ok {
					return nil, fmt.Errorf("shards must be bytes")
				}
				s, err := fountain.UnmarshalShard(b)
				if err != nil {
					return nil, err
				}
				shards = append(shards, s)
			}
			data, err := fountain.Decode(shards)
			if err != nil {
				return nil, err
			}
			return interp.Bytes(data), nil
		},
	})
}

// --- tor (circuit-level access through the Stem firewall) ---------------------

func (st *apiState) torObject() *interp.Object {
	c := st.b.Container
	sess := st.b.Stem
	return interp.NewObject("tor", map[string]interp.BuiltinFn{
		"create_circuit": c.Mediate("stem.create_circuit", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("create_circuit(dest_host, dest_port)")
			}
			host, ok1 := args[0].(interp.Str)
			port, ok2 := args[1].(interp.Int)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("create_circuit(str, int)")
			}
			h, err := sess.CreateCircuit(string(host), int(port))
			if err != nil {
				return nil, err
			}
			return interp.Int(h), nil
		}),
		"open_stream": c.Mediate("stem.create_circuit", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("open_stream(circuit, target)")
			}
			circ, ok1 := args[0].(interp.Int)
			target, ok2 := args[1].(interp.Str)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("open_stream(int, str)")
			}
			h, err := sess.OpenStream(int(circ), string(target))
			if err != nil {
				return nil, err
			}
			return interp.Int(h), nil
		}),
		"send": c.Mediate("tor.send", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("send(stream, data)")
			}
			h, ok := args[0].(interp.Int)
			if !ok {
				return nil, fmt.Errorf("send stream handle must be int")
			}
			data, err := bytesArg(args, 1, "send")
			if err != nil {
				return nil, err
			}
			conn, err := sess.Stream(int(h))
			if err != nil {
				return nil, err
			}
			if _, err := conn.Write(data); err != nil {
				return nil, err
			}
			return interp.None, nil
		}),
		"recv": c.Mediate("tor.send", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("recv(stream, max, timeout_ms)")
			}
			h, ok1 := args[0].(interp.Int)
			max, ok2 := args[1].(interp.Int)
			tmo, ok3 := args[2].(interp.Int)
			if !ok1 || !ok2 || !ok3 || max <= 0 || max > 16<<20 {
				return nil, fmt.Errorf("recv(int, int, int)")
			}
			conn, err := sess.Stream(int(h))
			if err != nil {
				return nil, err
			}
			real := time.Duration(float64(time.Duration(tmo)*time.Millisecond) * st.b.Host.Clock().Scale())
			conn.SetReadDeadline(time.Now().Add(real))
			buf := make([]byte, max)
			n, err := conn.Read(buf)
			conn.SetReadDeadline(time.Time{})
			if n > 0 {
				return interp.Bytes(buf[:n]), nil
			}
			if err == io.EOF {
				return interp.None, nil
			}
			if err != nil {
				if te, ok := err.(interface{ Timeout() bool }); ok && te.Timeout() {
					return interp.Bytes(nil), nil
				}
				return nil, err
			}
			return interp.Bytes(nil), nil
		}),
		"close_stream": c.Mediate("stem.close_circuit", func(args []interp.Value) (interp.Value, error) {
			h, ok := args[0].(interp.Int)
			if len(args) != 1 || !ok {
				return nil, fmt.Errorf("close_stream(handle)")
			}
			return interp.None, sess.CloseStream(int(h))
		}),
		"close_circuit": c.Mediate("stem.close_circuit", func(args []interp.Value) (interp.Value, error) {
			h, ok := args[0].(interp.Int)
			if len(args) != 1 || !ok {
				return nil, fmt.Errorf("close_circuit(handle)")
			}
			return interp.None, sess.CloseCircuit(int(h))
		}),
		"drop": c.Mediate("stem.create_circuit", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("drop(circuit, nbytes)")
			}
			h, ok1 := args[0].(interp.Int)
			n, ok2 := args[1].(interp.Int)
			if !ok1 || !ok2 || n < 0 || n > 1<<20 {
				return nil, fmt.Errorf("drop(int, int)")
			}
			junk := make([]byte, n)
			rand.Read(junk)
			return interp.None, sess.SendDrop(int(h), junk)
		}),
	})
}

// --- stem (hidden-service operations) ------------------------------------------

func (st *apiState) stemObject() *interp.Object {
	c := st.b.Container
	sess := st.b.Stem
	serveFile := func(path string) func(net.Conn) {
		return func(conn net.Conn) {
			defer conn.Close()
			data, err := c.FS().Read(path)
			if err != nil {
				return
			}
			conn.Write(data)
		}
	}
	return interp.NewObject("stem", map[string]interp.BuiltinFn{
		"new_identity": c.Mediate("stem.launch_hs", func(args []interp.Value) (interp.Value, error) {
			ident, err := hs.NewIdentity()
			if err != nil {
				return nil, err
			}
			blob, err := ident.Marshal()
			if err != nil {
				return nil, err
			}
			return interp.Bytes(blob), nil
		}),
		"service_id": c.Mediate("stem.launch_hs", func(args []interp.Value) (interp.Value, error) {
			blob, err := bytesArg(args, 0, "service_id")
			if err != nil {
				return nil, err
			}
			ident, err := hs.IdentityFromBytes(blob)
			if err != nil {
				return nil, err
			}
			return interp.Str(ident.ServiceID()), nil
		}),
		// launch_hs starts a hidden service whose introductions queue for
		// the function (the LoadBalancer front).
		"launch_hs": c.Mediate("stem.launch_hs", func(args []interp.Value) (interp.Value, error) {
			blob, err := bytesArg(args, 0, "launch_hs")
			if err != nil {
				return nil, err
			}
			ident, err := hs.IdentityFromBytes(blob)
			if err != nil {
				return nil, err
			}
			return st.launchService(ident, nil)
		}),
		// launch_hs_file starts a hidden service serving the container
		// file at path to every client (the no-LoadBalancer baseline).
		"launch_hs_file": c.Mediate("stem.launch_hs", func(args []interp.Value) (interp.Value, error) {
			blob, err := bytesArg(args, 0, "launch_hs_file")
			if err != nil {
				return nil, err
			}
			if len(args) != 2 {
				return nil, fmt.Errorf("launch_hs_file(identity, path)")
			}
			path, ok := args[1].(interp.Str)
			if !ok {
				return nil, fmt.Errorf("launch_hs_file path must be str")
			}
			ident, err := hs.IdentityFromBytes(blob)
			if err != nil {
				return nil, err
			}
			return st.launchService(ident, serveFile(string(path)))
		}),
		"next_intro": c.Mediate("stem.launch_hs", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("next_intro(hs_handle)")
			}
			h, ok := args[0].(interp.Int)
			if !ok {
				return nil, fmt.Errorf("next_intro handle must be int")
			}
			blob, err := sess.NextIntroduction(int(h))
			if err != nil {
				return nil, err
			}
			if blob == nil {
				return interp.None, nil
			}
			return interp.Bytes(blob), nil
		}),
		// respond_rendezvous_file meets a client at its rendezvous point
		// on behalf of identity and serves the container file at path.
		// The transfer proceeds asynchronously; active_transfers reports
		// in-flight connections.
		"respond_rendezvous_file": c.Mediate("stem.launch_hs", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("respond_rendezvous_file(identity, intro, path)")
			}
			identBlob, err := bytesArg(args, 0, "respond_rendezvous_file")
			if err != nil {
				return nil, err
			}
			intro, err := bytesArg(args, 1, "respond_rendezvous_file")
			if err != nil {
				return nil, err
			}
			path, ok := args[2].(interp.Str)
			if !ok {
				return nil, fmt.Errorf("path must be str")
			}
			ident, err := hs.IdentityFromBytes(identBlob)
			if err != nil {
				return nil, err
			}
			if err := sess.RespondAtRendezvous(ident, intro, serveFile(string(path))); err != nil {
				return nil, err
			}
			return interp.None, nil
		}),
		// active_transfers reports this function's in-flight rendezvous
		// connections — the replica load signal of §8.2.
		"active_transfers": c.Mediate("stem.launch_hs", func(args []interp.Value) (interp.Value, error) {
			return interp.Int(sess.ActiveTransfers()), nil
		}),
	})
}

func (st *apiState) launchService(ident *hs.Identity, handler func(net.Conn)) (interp.Value, error) {
	h, err := st.b.Stem.LaunchHiddenService(ident, handler)
	if err != nil {
		return nil, err
	}
	return interp.Int(h), nil
}

// --- bento (function composition, §3 "Composing Functions") -------------------

func (st *apiState) bentoObject() *interp.Object {
	c := st.b.Container
	cli := bento.NewClient(st.b.Tor, nil)
	getConn := func(h interp.Value) (*composeConn, error) {
		n, ok := h.(interp.Int)
		if !ok {
			return nil, fmt.Errorf("connection handle must be int")
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		cc := st.conns[int(n)]
		if cc == nil {
			return nil, fmt.Errorf("unknown connection handle %d", n)
		}
		return cc, nil
	}
	return interp.NewObject("bento", map[string]interp.BuiltinFn{
		"nodes": c.Mediate("bento.compose", func(args []interp.Value) (interp.Value, error) {
			out := &interp.List{}
			for _, d := range cli.Nodes() {
				out.Elems = append(out.Elems, interp.Str(d.Nickname))
			}
			return out, nil
		}),
		"connect": c.Mediate("bento.compose", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("connect(node)")
			}
			nick, ok := args[0].(interp.Str)
			if !ok {
				return nil, fmt.Errorf("connect node must be str")
			}
			desc := st.b.Tor.Consensus().Relay(string(nick))
			if desc == nil {
				return nil, fmt.Errorf("unknown node %q", nick)
			}
			conn, err := cli.Connect(desc)
			if err != nil {
				return nil, err
			}
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.conns == nil {
				st.conns = make(map[int]*composeConn)
			}
			id := st.alloc()
			st.conns[id] = &composeConn{node: string(nick), conn: conn, cli: cli}
			return interp.Int(id), nil
		}),
		"spawn": c.Mediate("bento.compose", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("spawn(conn, image, name)")
			}
			cc, err := getConn(args[0])
			if err != nil {
				return nil, err
			}
			image, ok1 := args[1].(interp.Str)
			name, ok2 := args[2].(interp.Str)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("spawn(int, str, str)")
			}
			fn, err := cc.conn.Spawn(ComposedManifest(string(image), string(name)))
			if err != nil {
				return nil, err
			}
			return &interp.List{Elems: []interp.Value{
				interp.Str(fn.InvokeToken()), interp.Str(fn.ShutdownToken()),
			}}, nil
		}),
		"upload": c.Mediate("bento.compose", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("upload(conn, invoke_token, code)")
			}
			cc, err := getConn(args[0])
			if err != nil {
				return nil, err
			}
			tok, ok1 := args[1].(interp.Str)
			code, ok2 := args[2].(interp.Str)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("upload(int, str, str)")
			}
			return interp.None, cc.conn.AttachFunction(string(tok)).Upload(string(code))
		}),
		"invoke": c.Mediate("bento.compose", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 4 {
				return nil, fmt.Errorf("invoke(conn, invoke_token, fn, args)")
			}
			cc, err := getConn(args[0])
			if err != nil {
				return nil, err
			}
			tok, ok1 := args[1].(interp.Str)
			fnName, ok2 := args[2].(interp.Str)
			fargs, ok3 := args[3].(*interp.List)
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("invoke(int, str, str, list)")
			}
			data, _, err := cc.conn.AttachFunction(string(tok)).Invoke(string(fnName), fargs.Elems...)
			if err != nil {
				return nil, err
			}
			return interp.Bytes(data), nil
		}),
		// call invokes a function and returns its *return value* (rather
		// than its api.send output), for control-plane exchanges like
		// load queries.
		"call": c.Mediate("bento.compose", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 4 {
				return nil, fmt.Errorf("call(conn, invoke_token, fn, args)")
			}
			cc, err := getConn(args[0])
			if err != nil {
				return nil, err
			}
			tok, ok1 := args[1].(interp.Str)
			fnName, ok2 := args[2].(interp.Str)
			fargs, ok3 := args[3].(*interp.List)
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("call(int, str, str, list)")
			}
			_, result, err := cc.conn.AttachFunction(string(tok)).Invoke(string(fnName), fargs.Elems...)
			if err != nil {
				return nil, err
			}
			return result, nil
		}),
		// invoke_async runs an invocation on a fresh circuit so multiple
		// outstanding invocations proceed concurrently; poll() collects.
		"invoke_async": c.Mediate("bento.compose", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 4 {
				return nil, fmt.Errorf("invoke_async(conn, invoke_token, fn, args)")
			}
			cc, err := getConn(args[0])
			if err != nil {
				return nil, err
			}
			tok, ok1 := args[1].(interp.Str)
			fnName, ok2 := args[2].(interp.Str)
			fargs, ok3 := args[3].(*interp.List)
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("invoke_async(int, str, str, list)")
			}
			node := st.b.Tor.Consensus().Relay(cc.node)
			if node == nil {
				return nil, fmt.Errorf("node %q vanished from consensus", cc.node)
			}
			ch := make(chan asyncResult, 1)
			st.mu.Lock()
			if st.asyncs == nil {
				st.asyncs = make(map[int]chan asyncResult)
			}
			id := st.alloc()
			st.asyncs[id] = ch
			st.mu.Unlock()
			fargsCopy := append([]interp.Value(nil), fargs.Elems...)
			go func() {
				conn, err := cli.Connect(node)
				if err != nil {
					ch <- asyncResult{err: err}
					return
				}
				defer conn.Close()
				data, _, err := conn.AttachFunction(string(tok)).Invoke(string(fnName), fargsCopy...)
				ch <- asyncResult{data: data, err: err}
			}()
			return interp.Int(id), nil
		}),
		"poll": c.Mediate("bento.compose", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("poll(handle)")
			}
			h, ok := args[0].(interp.Int)
			if !ok {
				return nil, fmt.Errorf("poll handle must be int")
			}
			st.mu.Lock()
			ch := st.asyncs[int(h)]
			st.mu.Unlock()
			if ch == nil {
				return nil, fmt.Errorf("unknown async handle %d", h)
			}
			select {
			case res := <-ch:
				st.mu.Lock()
				delete(st.asyncs, int(h))
				st.mu.Unlock()
				d := interp.NewDict()
				d.Set(interp.Str("done"), interp.Bool(true))
				d.Set(interp.Str("data"), interp.Bytes(res.data))
				if res.err != nil {
					d.Set(interp.Str("error"), interp.Str(res.err.Error()))
				}
				return d, nil
			default:
				return interp.None, nil
			}
		}),
		"shutdown": c.Mediate("bento.compose", func(args []interp.Value) (interp.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("shutdown(conn, shutdown_token)")
			}
			cc, err := getConn(args[0])
			if err != nil {
				return nil, err
			}
			tok, ok := args[1].(interp.Str)
			if !ok {
				return nil, fmt.Errorf("shutdown token must be str")
			}
			return interp.None, cc.conn.ShutdownByToken(string(tok))
		}),
	})
}

// ComposedManifest is the manifest functions use when spawning helper
// functions on other nodes through the bento composition API.
func ComposedManifest(image, name string) *policy.Manifest {
	return &policy.Manifest{
		Name:  name,
		Image: image,
		Calls: []string{
			"tor.send", "fs.read", "fs.write", "net.dial",
			"stem.create_circuit", "stem.launch_hs", "stem.close_circuit",
			"bento.compose", "clock.now", "clock.sleep",
		},
		Memory:       32 << 20,
		Instructions: 50_000_000,
		Storage:      64 << 20,
	}
}

// unpadCodecs serves UnpadBrowser, the one client-side zlib user (its
// writers stay empty).
var unpadCodecs = newZlibCodecs()

// zlibDecompressPrefix inflates the zlib stream at the start of payload,
// ignoring trailing padding bytes.
func zlibDecompressPrefix(payload []byte) ([]byte, error) {
	out, err := unpadCodecs.decompress(payload)
	if err != nil {
		return nil, fmt.Errorf("functions: payload is not a zlib stream: %w", err)
	}
	return out, nil
}

func bytesArg(args []interp.Value, i int, fn string) ([]byte, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("%s: missing argument %d", fn, i)
	}
	switch v := args[i].(type) {
	case interp.Bytes:
		return []byte(v), nil
	case interp.Str:
		return []byte(v), nil
	default:
		return nil, fmt.Errorf("%s: argument %d must be bytes, got %s", fn, i, args[i].Type())
	}
}
