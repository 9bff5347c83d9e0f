package bento

import (
	"strings"
	"testing"

	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/wire"
)

// Adversarial-client tests: the server must survive protocol garbage and
// refuse confused-deputy attempts.

func TestServerSurvivesGarbageFrames(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "mallory", 200)

	// Raw Tor stream to the Bento port, then junk.
	node := cli.Nodes()[0]
	conn, err := cli.Connect(node)
	if err != nil {
		t.Fatal(err)
	}
	// Write a frame that is valid JSON but a nonsense op.
	_, err = conn.roundTrip(&request{Op: "pwn"}, nil)
	if err == nil {
		t.Fatal("nonsense op succeeded")
	}
	if !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("nonsense op error = %v, want the server's rejection, not a dead stream", err)
	}
	conn.Close()

	// Raw bytes that are not a frame at all: the server must drop the
	// connection rather than wedge on it.
	conn2, err := cli.Connect(node)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.stream.Write([]byte("\xff\xff\xff\xff garbage garbage")); err != nil {
		t.Fatalf("writing garbage: %v", err)
	}
	if _, err := conn2.stream.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the stream open after a malformed frame")
	}
	conn2.Close()

	// The server still works for honest clients.
	honest := w.client(t, "alice", 201)
	hconn, err := honest.Connect(honest.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer hconn.Close()
	if _, err := hconn.Policy(); err != nil {
		t.Fatalf("server broken after garbage: %v", err)
	}
}

func TestSealedUploadToPlainContainerRejected(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 202)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := conn.Spawn(basicManifest()) // plain python image
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()

	key, _ := otr.NewOnionKey()
	sealed, _ := otr.SealTo(key.Public(), []byte("x = 1"))
	_, err = conn.roundTrip(sealedUpload(fn, sealed), nil)
	if err == nil || !strings.Contains(err.Error(), "non-enclaved") {
		t.Fatalf("sealed upload to plain container: %v", err)
	}
}

// sealedUpload builds the upload request Function.Upload would, around a
// ciphertext of the test's choosing.
func sealedUpload(fn *Function, sealed []byte) *request {
	req := &request{Op: opUpload, InvokeToken: fn.InvokeToken(), CodeLen: len(sealed), Sealed: true}
	req.trailer.AddBytes(sealed)
	return req
}

func TestSealedUploadWithWrongKeyRejected(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 203)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	man := basicManifest()
	man.Image = "python-op-sgx"
	fn, err := conn.Spawn(man)
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()

	// Seal to an attacker-chosen key instead of the enclave key.
	wrong, _ := otr.NewOnionKey()
	sealed, _ := otr.SealTo(wrong.Public(), []byte("x = 1"))
	if _, err := conn.roundTrip(sealedUpload(fn, sealed), nil); err == nil {
		t.Fatal("wrong-key sealed upload accepted")
	}
}

func TestUploadSyntaxErrorSurfaced(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 204)
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
	if err := fn.Upload("def broken(:\n    pass"); err == nil {
		t.Fatal("syntax error not surfaced")
	}
	// The container survives a failed upload and accepts a good one.
	if err := fn.Upload(echoFunction); err != nil {
		t.Fatalf("container unusable after bad upload: %v", err)
	}
	if out, _, err := fn.Invoke("echo", interp.Bytes("ok")); err != nil || string(out) != "echo:ok" {
		t.Fatalf("invoke after recovery: %q %v", out, err)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 205)
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
	fn.Upload(echoFunction)
	if _, _, err := fn.Invoke("nonexistent"); err == nil {
		t.Fatal("unknown function invoked")
	}
	// Invoking a non-function global fails cleanly.
	fn.Upload("notfn = 42")
	if _, _, err := fn.Invoke("notfn"); err == nil {
		t.Fatal("non-function invoked")
	}
}

func TestConcurrentClientsSeparateFunctions(t *testing.T) {
	w := buildWorld(t, 4, 1)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			cli := w.client(t, "user"+string(rune('a'+i)), int64(210+i))
			conn, err := cli.Connect(cli.Nodes()[0])
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			fn, err := conn.Spawn(basicManifest())
			if err != nil {
				done <- err
				return
			}
			defer fn.Shutdown()
			if err := fn.Upload(echoFunction); err != nil {
				done <- err
				return
			}
			payload := interp.Bytes{byte('0' + i)}
			out, _, err := fn.Invoke("echo", payload)
			if err != nil {
				done <- err
				return
			}
			if string(out) != "echo:"+string(payload) {
				done <- errMismatch(string(out))
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errMismatch string

func (e errMismatch) Error() string { return "output mismatch: " + string(e) }

func TestOversizedFrameRejectedByServer(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "mallory", 220)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A code upload beyond the wire limit must be refused client-side
	// (WriteJSON) rather than shipped.
	huge := strings.Repeat("x = 1\n", wire.MaxMessage/5)
	fn := conn.AttachFunction("whatever")
	if err := fn.Upload(huge); err == nil {
		t.Fatal("oversized upload accepted")
	}
}
