package bento

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/enclave"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/torclient"
	"github.com/bento-nfv/bento/internal/wire"
)

// world is a full test deployment: a Tor overlay where one relay hosts a
// Bento server in the exit-to-localhost configuration.
type world struct {
	net     *simnet.Network
	cons    *dirauth.Consensus
	ias     *enclave.AttestationService
	servers []*Server
}

// exitPolicyWithBento permits general exits plus the localhost Bento port.
func exitPolicyWithBento(t testing.TB) *policy.ExitPolicy {
	t.Helper()
	p, err := policy.ParseExitPolicy(
		fmt.Sprintf("accept localhost:%d", Port),
		"accept *:*",
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildWorld creates nRelays relays; the first nBento of them run Bento
// servers with SGX platforms.
func buildWorld(t testing.TB, nRelays, nBento int) *world {
	t.Helper()
	n := simnet.NewNetwork(simnet.NewClock(0.0005), 2*time.Millisecond)
	n.SetObs(obs.NewRegistry()) // live telemetry, so tests can assert counters
	auth, err := dirauth.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	ias, err := enclave.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	w := &world{net: n, ias: ias}

	type pending struct {
		r    *relay.Relay
		host *simnet.Host
	}
	var bentoNodes []pending
	for i := 0; i < nRelays; i++ {
		name := fmt.Sprintf("relay%d", i)
		host := n.AddHost(name, 0)
		cfg := relay.Config{
			Nickname:   name,
			Flags:      []string{dirauth.FlagGuard, dirauth.FlagExit, dirauth.FlagHSDir},
			ExitPolicy: exitPolicyWithBento(t),
			Quiet:      true,
		}
		if i < nBento {
			cfg.Flags = append(cfg.Flags, dirauth.FlagBento)
			cfg.Middlebox = policy.DefaultMiddlebox()
			cfg.BentoAddr = fmt.Sprintf("%s:%d", name, Port)
		}
		r, err := relay.New(host, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.ServeHSDir()
		d, _ := r.Descriptor()
		if err := auth.Publish(d); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		if i < nBento {
			bentoNodes = append(bentoNodes, pending{r: r, host: host})
		}
	}
	cons, err := auth.Consensus()
	if err != nil {
		t.Fatal(err)
	}
	w.cons = cons

	for i, bn := range bentoNodes {
		platform, err := enclave.NewPlatform(enclave.MinTCBVersion)
		if err != nil {
			t.Fatal(err)
		}
		ias.RegisterPlatform(platform.QuotingKey())
		srv, err := NewServer(ServerConfig{
			Host:       bn.host,
			Tor:        torclient.New(bn.host, cons, int64(1000+i)),
			Policy:     policy.DefaultMiddlebox(),
			ExitPolicy: exitPolicyWithBento(t),
			Platform:   platform,
			IAS:        ias,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.servers = append(w.servers, srv)
		t.Cleanup(func() { srv.Close() })
	}
	return w
}

func (w *world) client(t testing.TB, name string, seed int64) *Client {
	t.Helper()
	host := w.net.AddHost(name, 0)
	return NewClient(torclient.New(host, w.cons, seed), w.ias.PublicKey())
}

func basicManifest() *policy.Manifest {
	return &policy.Manifest{
		Name:         "echo",
		Image:        "python",
		Calls:        []string{"tor.send", "fs.read", "fs.write", "clock.now", "clock.sleep"},
		Memory:       8 << 20,
		Instructions: 5_000_000,
		Storage:      8 << 20,
	}
}

const echoFunction = `
def echo(data):
    api.send(b"echo:" + data)
    return len(data)
`

func TestDiscoverySpawnUploadInvoke(t *testing.T) {
	w := buildWorld(t, 4, 1)
	cli := w.client(t, "alice", 1)

	nodes := cli.Nodes("tor.send")
	if len(nodes) != 1 {
		t.Fatalf("found %d Bento nodes, want 1", len(nodes))
	}
	conn, err := cli.Connect(nodes[0])
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer conn.Close()

	pol, err := conn.Policy()
	if err != nil {
		t.Fatalf("Policy: %v", err)
	}
	if !pol.AllowsCall("tor.send") {
		t.Fatal("policy missing tor.send")
	}

	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := fn.Upload(echoFunction); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	out, result, err := fn.Invoke("echo", interp.Bytes("hello bento"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(out) != "echo:hello bento" {
		t.Fatalf("output %q", out)
	}
	if result != interp.Int(11) {
		t.Fatalf("result %v", result)
	}
	if err := fn.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Invoking after shutdown fails.
	if _, _, err := fn.Invoke("echo", interp.Bytes("x")); err == nil {
		t.Fatal("invoke after shutdown succeeded")
	}
}

func TestServerAttestation(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 2)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	report, err := conn.Attest()
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	if !report.OK {
		t.Fatal("report not OK")
	}
}

func TestSGXContainerSealedUpload(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 3)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	man := basicManifest()
	man.Image = "python-op-sgx"
	fn, err := conn.Spawn(man)
	if err != nil {
		t.Fatalf("Spawn SGX: %v", err)
	}
	if err := fn.Upload(echoFunction); err != nil {
		t.Fatalf("sealed Upload: %v", err)
	}
	out, _, err := fn.Invoke("echo", interp.Bytes("enclaved"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(out) != "echo:enclaved" {
		t.Fatalf("output %q", out)
	}
	fn.Shutdown()
}

func TestInvocationTokenShareableShutdownNot(t *testing.T) {
	w := buildWorld(t, 3, 1)
	alice := w.client(t, "alice", 4)
	conn, err := alice.Connect(alice.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Upload(echoFunction); err != nil {
		t.Fatal(err)
	}

	// Bob attaches with the shared invocation token and can invoke.
	bob := w.client(t, "bob", 5)
	bconn, err := bob.Connect(bob.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer bconn.Close()
	shared := bconn.AttachFunction(fn.InvokeToken())
	out, _, err := shared.Invoke("echo", interp.Bytes("from bob"))
	if err != nil {
		t.Fatalf("shared invoke: %v", err)
	}
	if string(out) != "echo:from bob" {
		t.Fatalf("output %q", out)
	}
	// But Bob cannot shut it down without the shutdown token.
	if err := shared.Shutdown(); err == nil {
		t.Fatal("shutdown without token succeeded")
	}
	// Nor by guessing/replaying the invoke token as a shutdown token.
	if _, err := bconn.roundTrip(&request{Op: opShutdown, ShutdownToken: fn.InvokeToken()}, nil); err == nil {
		t.Fatal("invoke token accepted for shutdown")
	}
	// Alice retains exclusive shutdown rights.
	if err := fn.Shutdown(); err != nil {
		t.Fatalf("owner shutdown: %v", err)
	}
}

func TestBadTokensRejected(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 6)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fake := conn.AttachFunction("deadbeefdeadbeefdeadbeefdeadbeef")
	if _, _, err := fake.Invoke("echo"); err == nil {
		t.Fatal("bogus invocation token accepted")
	}
	if err := fake.Upload("x = 1"); err == nil {
		t.Fatal("bogus token accepted for upload")
	}
}

func TestManifestPolicyNegotiation(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 7)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	man := basicManifest()
	man.Calls = append(man.Calls, "os.exec")
	if _, err := conn.Spawn(man); err == nil {
		t.Fatal("manifest exceeding policy accepted")
	}
	man2 := basicManifest()
	man2.Memory = 1 << 40
	if _, err := conn.Spawn(man2); err == nil {
		t.Fatal("oversized memory manifest accepted")
	}
}

func TestFunctionResourceViolationSurfaces(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 8)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	man := basicManifest()
	man.Instructions = 10_000
	fn, err := conn.Spawn(man)
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()
	if err := fn.Upload("def spin():\n    while True:\n        pass\n"); err != nil {
		t.Fatal(err)
	}
	_, _, err = fn.Invoke("spin")
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("got %v, want budget error", err)
	}
}

func TestFunctionSandboxDeniesUnrequestedAPI(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 9)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	man := basicManifest()
	man.Calls = []string{"tor.send"} // no fs.*
	fn, err := conn.Spawn(man)
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()
	if err := fn.Upload(`
def sneaky():
    fs.write("loot", b"stolen")
`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fn.Invoke("sneaky"); err == nil {
		t.Fatal("fs.write permitted without manifest request")
	}
}

func TestStatefulFunctionAcrossInvocations(t *testing.T) {
	// The Dropbox pattern: put in one invocation, get in another —
	// state persists in the container between invokes.
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 10)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()
	if err := fn.Upload(`
def put(data):
    fs.write("box", data)
    return True

def get():
    api.send(fs.read("box"))
`); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("stored "), 500)
	if _, _, err := fn.Invoke("put", interp.Bytes(payload)); err != nil {
		t.Fatal(err)
	}
	out, _, err := fn.Invoke("get")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("dropbox round trip mismatch")
	}
}

func TestStreamingInvoke(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 11)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()
	if err := fn.Upload(`
def stream(n):
    for i in range(n):
        api.send(bytes([65 + i]))
`); err != nil {
		t.Fatal(err)
	}
	var chunks [][]byte
	if _, err := fn.InvokeStream("stream", []interp.Value{interp.Int(5)}, func(p []byte) {
		chunks = append(chunks, append([]byte(nil), p...))
	}); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 5 {
		t.Fatalf("got %d chunks, want 5", len(chunks))
	}
	if string(chunks[0]) != "A" || string(chunks[4]) != "E" {
		t.Fatalf("chunk contents wrong: %q..%q", chunks[0], chunks[4])
	}
}

func TestWireValueRoundTrip(t *testing.T) {
	d := interp.NewDict()
	d.Set(interp.Str("k"), interp.Int(1))
	vals := []interp.Value{
		interp.Int(-42),
		interp.Str("hello"),
		interp.Bytes{0, 1, 2, 255},
		interp.Bool(true),
		interp.None,
		&interp.List{Elems: []interp.Value{interp.Int(1), interp.Str("x")}},
		d,
	}
	for _, v := range vals {
		back, err := frameRoundTrip(v)
		if err != nil {
			t.Fatalf("%s: %v", v.Type(), err)
		}
		if !interp.Equal(v, back) {
			t.Fatalf("%s round trip: %s != %s", v.Type(), interp.Repr(v), interp.Repr(back))
		}
	}
	// Functions cannot cross the wire.
	m := interp.NewMachine(interp.Limits{})
	if err := m.Run("def f():\n    pass\n"); err != nil {
		t.Fatal(err)
	}
	f, _ := m.Globals.Lookup("f")
	if _, err := encodeValue(f, new(wire.Trailer)); err == nil {
		t.Fatal("function encoded")
	}
	// Nor can a container that contains itself (a function can return one);
	// the same list twice is not a cycle.
	l := &interp.List{Elems: []interp.Value{interp.Int(1)}}
	if _, err := encodeValue(&interp.List{Elems: []interp.Value{l, l}}, new(wire.Trailer)); err != nil {
		t.Fatalf("shared list: %v", err)
	}
	l.Elems = append(l.Elems, l)
	if _, err := encodeValue(l, new(wire.Trailer)); err == nil {
		t.Fatal("cyclic list encoded")
	}
}

func BenchmarkInvokeRoundTrip(b *testing.B) {
	w := buildWorld(b, 3, 1)
	cli := w.client(b, "bench", 900)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		b.Fatal(err)
	}
	defer fn.Shutdown()
	if err := fn.Upload(echoFunction); err != nil {
		b.Fatal(err)
	}
	payload := interp.Bytes(bytes.Repeat([]byte{7}, 1024))
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fn.Invoke("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpawnShutdown(b *testing.B) {
	w := buildWorld(b, 3, 1)
	cli := w.client(b, "bench2", 901)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn, err := conn.Spawn(basicManifest())
		if err != nil {
			b.Fatal(err)
		}
		if err := fn.Shutdown(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBentoAsHiddenService(t *testing.T) {
	// The §5 alternative deployment: the Bento server is reached as a
	// hidden service rather than via an exit to localhost.
	w := buildWorld(t, 5, 1)
	serverHost := w.net.Host("relay0")
	svcTor := torclient.New(serverHost, w.cons, 400)
	svc, err := ServeHidden(serverHost, svcTor, nil)
	if err != nil {
		t.Fatalf("ServeHidden: %v", err)
	}
	defer svc.Close()

	cli := w.client(t, "alice", 401)
	conn, err := cli.ConnectHidden(svc.ServiceID())
	if err != nil {
		t.Fatalf("ConnectHidden: %v", err)
	}
	defer conn.Close()

	pol, err := conn.Policy()
	if err != nil {
		t.Fatalf("Policy over hidden service: %v", err)
	}
	if !pol.AllowsCall("tor.send") {
		t.Fatal("policy missing tor.send")
	}
	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		t.Fatalf("Spawn over hidden service: %v", err)
	}
	defer fn.Shutdown()
	if err := fn.Upload(echoFunction); err != nil {
		t.Fatal(err)
	}
	out, _, err := fn.Invoke("echo", interp.Bytes("via onion"))
	if err != nil {
		t.Fatalf("Invoke over hidden service: %v", err)
	}
	if string(out) != "echo:via onion" {
		t.Fatalf("output %q", out)
	}
}
