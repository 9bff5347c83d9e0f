package simnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// splitLine cuts newline-ended requests of at most 16 bytes.
func splitLine(buf []byte) (int, error) {
	if i := bytes.IndexByte(buf, '\n'); i >= 0 && i < 16 {
		return i + 1, nil
	}
	if len(buf) >= 16 {
		return 0, errors.New("line over 16 bytes")
	}
	return 0, nil
}

// onBothClocks runs f on a network over the wall-backed clock and one
// over the event clock.
func onBothClocks(t *testing.T, f func(t *testing.T, n *Network)) {
	t.Run("wall", func(t *testing.T) { f(t, NewNetwork(fastClock(), time.Millisecond)) })
	t.Run("event", func(t *testing.T) { f(t, NewNetwork(eventClock(t), time.Millisecond)) })
}

// expectClosed reads conn until the server's close reaches it.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("read %v, want the server's close", err)
	}
}

// TestServeRequestsReassembles: requests cut across writes, and several
// in one write, are each answered once and in order; a request past the
// split's bound and one the handler refuses close the conn.
func TestServeRequestsReassembles(t *testing.T) {
	onBothClocks(t, func(t *testing.T, n *Network) {
		ln, err := n.AddHost("srv", 0).ServeRequests(80, splitLine, func(req []byte, w io.Writer) bool {
			if string(req) == "quit\n" {
				return false
			}
			_, err := w.Write(bytes.ToUpper(req))
			return err == nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		cli := n.AddHost("cli", 0)
		conn, err := cli.Dial("srv:80")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, part := range []string{"a\nb", "b\nc", "c", "c\n"} {
			if _, err := conn.Write([]byte(part)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		want := "A\nBB\nCCC\n"
		got := make([]byte, len(want))
		if _, err := io.ReadFull(conn, got); err != nil || string(got) != want {
			t.Fatalf("answers %q, %v; want %q", got, err, want)
		}

		for _, bad := range []string{"quit\n", "sixteen-bytes-or-more"} {
			conn, err := cli.Dial("srv:80")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write([]byte(bad)); err != nil {
				t.Fatal(err)
			}
			expectClosed(t, conn)
			conn.Close()
		}
	})
}

// TestServeRequestsPausesOnBacklog: a client that sends many requests and
// reads none of the answers fills its own receive buffer, and then holds
// at most serveHighWater bytes and one answer in the server; once it
// reads, every request is answered.
func TestServeRequestsPausesOnBacklog(t *testing.T) {
	const requests, answer = 400, 16 << 10
	onBothClocks(t, func(t *testing.T, n *Network) {
		var handled atomic.Int64
		ln, err := n.AddHost("srv", 0).ServeRequests(80, splitLine, func(req []byte, w io.Writer) bool {
			handled.Add(1)
			_, err := w.Write(make([]byte, answer))
			return err == nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		conn, err := n.AddHost("cli", 0).Dial("srv:80")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(bytes.Repeat([]byte("x\n"), requests)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Millisecond)
		// The receive buffer passes readBufMax by at most one chunk.
		if got, most := handled.Load(), int64((readBufMax+maxChunk+serveHighWater)/answer+1); got == 0 || got > most {
			t.Fatalf("%d requests answered while the client read nothing, want 1..%d", got, most)
		}
		// A wall-time guard, not a read deadline: on the event clock a
		// deadline could fire while this goroutine runs between Reads
		// (ROADMAP item 1).
		guard := time.AfterFunc(10*time.Second, func() { conn.Close() })
		defer guard.Stop()
		if _, err := io.ReadFull(conn, make([]byte, requests*answer)); err != nil {
			t.Fatalf("reading every answer: %v (%d answered)", err, handled.Load())
		}
	})
}
