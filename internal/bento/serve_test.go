package bento

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/stackscan"
	"github.com/bento-nfv/bento/internal/wire"
)

// directServer starts a Bento server on a bare network and returns its
// host and a client host: no relays, no circuits.
func directServer(t *testing.T) (*Server, *simnet.Host, *simnet.Host) {
	t.Helper()
	n := simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
	n.SetObs(obs.NewRegistry())
	host := n.AddHost("srv", 0)
	srv, err := NewServer(ServerConfig{Host: host})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, host, n.AddHost("cli", 0)
}

// dialDirect opens a protocol connection from cli to port on the server
// host.
func dialDirect(t *testing.T, cli *simnet.Host, port int) *Conn {
	t.Helper()
	raw, err := cli.Dial(fmt.Sprintf("srv:%d", port))
	if err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(20 * time.Second))
	conn := NewClient(nil, nil).AttachStream(raw)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// deploy spawns a function on conn and uploads code to it.
func deploy(t *testing.T, conn *Conn, code string) *Function {
	t.Helper()
	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Upload(code); err != nil {
		t.Fatal(err)
	}
	return fn
}

// writeRequests writes reqs to conn's stream in one Write.
func writeRequests(t *testing.T, conn *Conn, reqs ...*request) {
	t.Helper()
	var batch bytes.Buffer
	for _, r := range reqs {
		if err := wire.WriteFrame(&batch, r, r.trailer); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.stream.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// waitUntil polls cond for up to ten seconds of wall time.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s", what)
		}
	}
}

// TestServerAnswersPipelinedRequests: upload, invoke, policy and shutdown
// requests written in one Write are answered in order, each exactly once:
// each op holds the conn until it has answered.
func TestServerAnswersPipelinedRequests(t *testing.T) {
	_, _, cli := directServer(t)
	conn := dialDirect(t, cli, Port)
	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		t.Fatal(err)
	}
	upload := &request{Op: opUpload, InvokeToken: fn.invokeTok, CodeLen: len(echoFunction)}
	upload.trailer.AddString(echoFunction)
	invoke := &request{Op: opInvoke, InvokeToken: fn.invokeTok, Function: "echo", Args: []wireValu{{T: "b", B: []byte("hi")}}}
	writeRequests(t, conn, upload, invoke, &request{Op: opPolicy}, &request{Op: opShutdown, ShutdownToken: fn.shutTok})

	dec := newDecoder(conn.stream)
	next := func() string {
		t.Helper()
		var r response
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if err := r.open(dec); err != nil {
			t.Fatal(err)
		}
		switch {
		case r.Error != "":
			return r.Type + " " + r.Error
		case r.Type == frameData:
			return r.Type + " " + string(r.payload)
		case r.Type == frameDone:
			return fmt.Sprintf("%s %v", r.Type, r.result)
		case r.Policy != nil:
			return r.Type + " policy"
		case r.Challenge != nil:
			return r.Type + " challenge"
		}
		return r.Type
	}
	for i, want := range []string{"ok", "data echo:hi", "done 2", "ok policy", "ok"} {
		if got := next(); got != want {
			t.Fatalf("answer %d: %q, want %q", i, got, want)
		}
	}
	// Nothing was answered twice: the next frame answers the next request.
	writeRequests(t, conn, &request{Op: opChallenge})
	if got := next(); got != "ok challenge" {
		t.Fatalf("answer to a later request: %q", got)
	}
}

// TestServerFlowControlsAPISend: a tenant that api.sends 4 MB to a client
// that reads nothing parks in the conn's blocking Write, so the server's
// end holds at most simnet's out-queue (64 chunks of 32 KiB) and one frame;
// once the client reads, every byte arrives.
func TestServerFlowControlsAPISend(t *testing.T) {
	const frames, payload = 64, 64 << 10
	srv, host, cli := directServer(t)
	// The server's own handler, on a second port whose conns the test can
	// see.
	var held atomic.Value
	ln, err := host.ServeRequests(Port+1, wire.SplitFrame(maxEnvelope, wire.MaxMessage), func(req []byte, w io.Writer) bool {
		held.Store(w.(simnet.LightConn))
		return srv.handle(req, w)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn := dialDirect(t, cli, Port+1)
	fn := deploy(t, conn, fmt.Sprintf("def flood():\n    chunk = \"x\" * %d\n    for i in range(%d):\n        api.send(chunk)\n    return 0\n", payload, frames))
	writeRequests(t, conn, &request{Op: opInvoke, InvokeToken: fn.invokeTok, Function: "flood"})

	const bound = 64*32<<10 + payload + 1<<10
	peak := 0
	sample := func() bool {
		if b := held.Load().(simnet.LightConn).Backlog(); b > peak {
			peak = b
		}
		if peak > bound {
			t.Fatalf("the server's conn holds %d bytes for a client that reads nothing, over %d", peak, bound)
		}
		return peak >= 1<<20
	}
	waitUntil(t, "the flood back up into the server", sample)
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		sample()
	}

	dec := newDecoder(conn.stream)
	got := 0
	for {
		var r response
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("after %d bytes: %v", got, err)
		}
		if err := r.open(dec); err != nil {
			t.Fatal(err)
		}
		if got += len(r.payload); r.Type != frameData {
			break
		}
	}
	if got != frames*payload {
		t.Fatalf("client read %d bytes, want %d", got, frames*payload)
	}
}

// TestCloseDuringInvoke: a client that closes while its invocation runs
// leaves no goroutine in internal/bento once the op ends, and the server
// closes its end: the EOF waited behind the op.
func TestCloseDuringInvoke(t *testing.T) {
	_, host, cli := directServer(t)
	conn := dialDirect(t, cli, Port)
	fn := deploy(t, conn, "def slow():\n    clock.sleep_ms(100000)\n    api.send(b\"late\")\n    return 1\n")
	writeRequests(t, conn, &request{Op: opInvoke, InvokeToken: fn.invokeTok, Function: "slow"})
	waitUntil(t, "the invocation's goroutine", func() bool { return len(stackscan.In("/internal/bento/")) == 1 })
	if n := host.OpenConns(); n != 1 {
		t.Fatalf("server host has %d open conns mid-invoke, want 1", n)
	}
	conn.Close()
	waitUntil(t, "the server close its end and hold no goroutine", func() bool {
		return host.OpenConns() == 0 && len(stackscan.In("/internal/bento/")) == 0
	})
}
