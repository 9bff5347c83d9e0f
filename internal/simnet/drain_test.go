package simnet

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// TestBacklogAndOnDrain: Backlog counts what was written and has not
// left the conn, and OnDrain fires once it has fallen to half — with the
// rest still on its way — or soon, on a conn with nothing to send.
func TestBacklogAndOnDrain(t *testing.T) {
	sc := &stepCore{}
	n := NewNetwork(&Clock{core: sc}, time.Millisecond)
	cl, sv := newConnPair(n.AddHost("a", 1<<20), n.AddHost("b", 0), 40001, 80)
	got := 0
	sv.SetDeliverFunc(func(data []byte, _ bool) { got += len(data) })

	fired := false
	cl.OnDrain(func() { fired = true })
	sc.run()
	if !fired {
		t.Fatal("OnDrain on an idle conn never fired")
	}

	chunk := make([]byte, maxChunk)
	for i := 0; i < 8; i++ {
		if err := cl.WriteAsync(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if b := cl.Backlog(); b != 8*maxChunk {
		t.Fatalf("backlog %d after 8 chunks, want %d", b, 8*maxChunk)
	}
	backlogAt, gotAt, calls := -1, -1, 0
	cl.OnDrain(func() { backlogAt, gotAt, calls = cl.Backlog(), got, calls+1 })
	sc.run()
	if calls != 1 || backlogAt != 4*maxChunk || gotAt != 4*maxChunk {
		t.Fatalf("drain ran %d times at backlog %d with %d delivered, want once at %d and %d", calls, backlogAt, gotAt, 4*maxChunk, 4*maxChunk)
	}
	if cl.Backlog() != 0 || got != 8*maxChunk {
		t.Fatalf("backlog %d, %d delivered after the run, want 0 and %d", cl.Backlog(), got, 8*maxChunk)
	}
}

// TestSetDeliverFuncPausedByCallback: a callback that clears itself
// while SetDeliverFunc flushes the buffer to it stops the flush there;
// what it had not taken stays buffered, in order, for Read or the next
// callback.
func TestSetDeliverFuncPausedByCallback(t *testing.T) {
	sc, cl, sv := stepPair(time.Millisecond)
	for i := byte(1); i <= 3; i++ {
		if err := cl.WriteAsync(bytes.Repeat([]byte{i}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	sc.run() // three chunks buffered at sv
	var got []byte
	sv.SetDeliverFunc(func(data []byte, _ bool) {
		got = append(got, data...)
		sv.SetDeliverFunc(nil)
	})
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, 100)) {
		t.Fatalf("the pausing callback took %d bytes, want the first chunk", len(got))
	}
	second := make([]byte, 100)
	if _, err := io.ReadFull(sv, second); err != nil || !bytes.Equal(second, bytes.Repeat([]byte{2}, 100)) {
		t.Fatalf("Read after the pause: %v, or not the second chunk", err)
	}
	got = got[:0]
	sv.SetDeliverFunc(func(data []byte, _ bool) { got = append(got, data...) })
	if !bytes.Equal(got, bytes.Repeat([]byte{3}, 100)) {
		t.Fatalf("the next callback took %d bytes, want the third chunk", len(got))
	}
}
