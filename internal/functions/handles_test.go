package functions_test

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/functions"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/sandbox"
	"github.com/bento-nfv/bento/internal/stemfw"
	"github.com/bento-nfv/bento/internal/webfarm"
)

// TestHandleKindsRefused: a function's circuits and compose connections
// share one table, so their handles never collide, and a handle passed
// to a call for another kind is refused as a firewall denial.
func TestHandleKindsRefused(t *testing.T) {
	w := newWorld(t, 4, 1)
	tor := w.NewTorClient("binder", 21)
	man := functions.DefaultManifest("kinds", "python")
	c, err := sandbox.New(sandbox.Config{Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	functions.StandardBinder()(&bento.Binding{
		Container: c,
		Stem:      stemfw.NewSession(tor, c.Handles(), man.Calls),
		Host:      tor.Host(),
		Tor:       tor,
	})
	call := func(obj, fn string, args ...interp.Value) (interp.Value, error) {
		o, _ := c.Machine().Globals.Lookup(obj)
		return o.(*interp.Object).Attrs[fn].(*interp.Builtin).Fn(args)
	}

	conn, err := call("bento", "connect", interp.Str(w.BentoNode(0).Nickname))
	if err != nil {
		t.Fatalf("bento.connect: %v", err)
	}
	circ, err := call("tor", "create_circuit", interp.Str("relay1"), interp.Int(9001))
	if err != nil {
		t.Fatalf("tor.create_circuit: %v", err)
	}
	if _, err := call("tor", "close_circuit", conn); !errors.Is(err, stemfw.ErrDenied) {
		t.Fatalf("tor.close_circuit(connection %v) = %v, want a denial", conn, err)
	}
	if _, err := call("bento", "invoke", circ, interp.Str("tok"), interp.Str("fn"), &interp.List{}); !errors.Is(err, stemfw.ErrDenied) {
		t.Fatalf("bento.invoke(circuit %v) = %v, want a denial", circ, err)
	}
	if _, err := call("tor", "close_circuit", circ); err != nil {
		t.Fatalf("tor.close_circuit(circuit %v): %v", circ, err)
	}
	if n := c.Handles().Count(sandbox.KindCompose); n != 1 {
		t.Fatalf("%d compose connections in the table, want 1", n)
	}
}

// TestShutdownClosesComposeConns: the connection a composed function
// opens to another Bento node is released with its container, so the
// node's open conns return to their count before the spawn.
func TestShutdownClosesComposeConns(t *testing.T) {
	site := webfarm.NamedSite("paper.web", 6000, []int{9000})
	w := newWorld(t, 6, 2, site)
	cli := w.NewBentoClient("alice", 22)
	conn, err := cli.Connect(w.BentoNode(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	host := w.Net.Host(w.BentoNode(0).Nickname)
	before := host.OpenConns()

	fn, err := functions.Deploy(conn, functions.DefaultManifest("browser+dropbox", "python"), functions.BrowserDropboxSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fn.Invoke("browse_to_dropbox",
		interp.Str("paper.web"), interp.Int(32*1024),
		interp.Str(w.BentoNode(1).Nickname), interp.Str(functions.DropboxSource)); err != nil {
		t.Fatalf("browse_to_dropbox: %v", err)
	}
	if err := fn.Shutdown(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for host.OpenConns() != before {
		if time.Now().After(deadline) {
			t.Fatalf("%s holds %d conns after shutdown, %d before the spawn", host.Name(), host.OpenConns(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTorStreamBuiltins: a function opens a circuit and a stream through
// the tor object, echoes a message through it, and closes both.
func TestTorStreamBuiltins(t *testing.T) {
	w := newWorld(t, 4, 1)
	ln, err := w.Net.AddHost("echo", 0).Listen(7)
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
			go func(c net.Conn) { defer c.Close(); io.Copy(c, c) }(c)
		}
	}()

	conn, err := w.NewBentoClient("alice", 23).Connect(w.BentoNode(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := functions.Deploy(conn, functions.DefaultManifest("echo", "python"), `
def echo(host, port, msg):
    c = tor.create_circuit(host, port)
    s = tor.open_stream(c, host + ":" + str(port))
    tor.send(s, msg)
    got = b""
    while len(got) < len(msg):
        part = tor.recv(s, 4096, 5000)
        if part == None:
            break
        got = got + part
    tor.close_stream(s)
    tor.close_circuit(c)
    return got
`)
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()
	msg := strings.Repeat("echo through a function's stream ", 40)
	_, got, err := fn.Invoke("echo", interp.Str("echo"), interp.Int(7), interp.Bytes(msg))
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	if b, ok := got.(interp.Bytes); !ok || string(b) != msg {
		t.Fatalf("echo returned %v, want %d bytes back", got, len(msg))
	}
}

// TestCloseBuiltinsWithoutArgs: tor.close_circuit() and tor.close_stream()
// with no argument fail with an ordinary error the function can catch.
func TestCloseBuiltinsWithoutArgs(t *testing.T) {
	w := newWorld(t, 3, 1)
	conn, err := w.NewBentoClient("alice", 24).Connect(w.BentoNode(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := functions.Deploy(conn, functions.DefaultManifest("noargs", "python"), `
def noargs():
    caught = []
    try:
        tor.close_circuit()
    except as e:
        caught.append(e)
    try:
        tor.close_stream()
    except as e:
        caught.append(e)
    return caught
`)
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()
	_, res, err := fn.Invoke("noargs")
	if err != nil {
		t.Fatalf("noargs: %v", err)
	}
	l, ok := res.(*interp.List)
	if !ok || len(l.Elems) != 2 {
		t.Fatalf("caught %v, want two errors", res)
	}
	for i, want := range []string{"close_circuit(handle)", "close_stream(handle)"} {
		if e, ok := l.Elems[i].(interp.Str); !ok || !strings.Contains(string(e), want) {
			t.Fatalf("error %d = %v, want one naming %s", i, l.Elems[i], want)
		}
	}
}
