package simnet

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// stepCore is a clockCore the test steps by hand: AfterFunc parks the
// callback in a fixed array and run fires what is pending, advancing the
// virtual now to each due time. Nothing in it allocates, so an
// AllocsPerRun over a conn pair on this clock counts the conn's own
// allocations and not the scheduler's (both real cores allocate a timer
// per armed delivery). Single-goroutine use only.
type stepCore struct {
	nowV    time.Duration
	n       int
	pending [4]struct {
		due time.Duration
		fn  func()
	}
	timer VTimer
}

func (sc *stepCore) scale() float64                         { return 1 }
func (sc *stepCore) eventDriven() bool                      { return false }
func (sc *stepCore) now() time.Duration                     { return sc.nowV }
func (sc *stepCore) sleep(d time.Duration)                  { sc.nowV += d }
func (sc *stepCore) after(d time.Duration) <-chan time.Time { panic("stepCore: After") }
func (sc *stepCore) park(p *parker)                         { panic("stepCore: a conn operation blocked") }
func (sc *stepCore) noteWake()                              {}
func (sc *stepCore) stop()                                  {}

func (sc *stepCore) afterFunc(d time.Duration, f func()) *VTimer {
	if d < 0 {
		d = 0
	}
	sc.pending[sc.n].due, sc.pending[sc.n].fn = sc.nowV+d, f
	sc.n++
	return &sc.timer
}

// run fires pending callbacks in due order until none are left.
func (sc *stepCore) run() {
	for sc.n > 0 {
		first := 0
		for i := 1; i < sc.n; i++ {
			if sc.pending[i].due < sc.pending[first].due {
				first = i
			}
		}
		due, fn := sc.pending[first].due, sc.pending[first].fn
		sc.n--
		sc.pending[first] = sc.pending[sc.n]
		sc.pending[sc.n].fn = nil
		if due > sc.nowV {
			sc.nowV = due
		}
		fn()
	}
}

// stepPair is a conn pair between two hosts on a stepCore clock.
func stepPair(delay time.Duration) (*stepCore, *conn, *conn) {
	sc := &stepCore{}
	cl, sv := newConnPairOn(NewNetwork(&Clock{core: sc}, delay))
	return sc, cl, sv
}

func newConnPairOn(n *Network) (*conn, *conn) {
	return newConnPair(n.AddHost("a", 0), n.AddHost("b", 0), 40001, 80)
}

var allocSizes = []struct {
	name string
	n    int
}{{"cell", 514}, {"32KiB", maxChunk}}

// TestConnWriteReadAllocFree: in steady state a Write, its delivery and
// the Read that drains it allocate nothing — the chunk comes from the
// pool, rides both queues by pointer and goes back to the pool.
func TestConnWriteReadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and empties sync.Pool")
	}
	for _, size := range allocSizes {
		t.Run(size.name, func(t *testing.T) {
			sc, cl, sv := stepPair(time.Millisecond)
			p := bytes.Repeat([]byte{0x5A}, size.n)
			got := make([]byte, size.n)
			cycle := func() {
				if _, err := cl.Write(p); err != nil {
					t.Fatal(err)
				}
				sc.run()
				if _, err := io.ReadFull(sv, got); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("Write+deliver+Read of %d bytes allocates %.0f times, want 0", size.n, allocs)
			}
			if !bytes.Equal(got, p) {
				t.Fatal("payload corrupted")
			}
		})
	}
}

// TestConnWriteAsyncDeliverAllocFree is the event-native twin: WriteAsync
// on one end, a deliver callback on the other.
func TestConnWriteAsyncDeliverAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and empties sync.Pool")
	}
	for _, size := range allocSizes {
		t.Run(size.name, func(t *testing.T) {
			sc, cl, sv := stepPair(time.Millisecond)
			p := bytes.Repeat([]byte{0xC3}, size.n)
			var delivered int
			sv.SetDeliverFunc(func(data []byte, eof bool) {
				for _, b := range data {
					if b != 0xC3 {
						t.Error("callback saw foreign bytes")
						break
					}
				}
				delivered += len(data)
			})
			cycle := func() {
				if err := cl.WriteAsync(p); err != nil {
					t.Fatal(err)
				}
				sc.run()
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			delivered = 0
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("WriteAsync+deliver of %d bytes allocates %.0f times, want 0", size.n, allocs)
			}
			if delivered != 201*size.n { // AllocsPerRun adds one warm-up call
				t.Fatalf("callback received %d bytes, want %d", delivered, 201*size.n)
			}
		})
	}
}

// TestConnSizeofPinned: the per-host memory gates (-exp scale's B/host,
// churn.bytes_per_host) sit on this struct, two per connection. Growing
// it is a decision, not a side effect.
func TestConnSizeofPinned(t *testing.T) {
	if got := unsafe.Sizeof(conn{}); got != 304 {
		t.Fatalf("sizeof(conn) = %d, want 304", got)
	}
}

func TestChunkQueue(t *testing.T) {
	var q ChunkQueue
	if q.Len() != 0 || q.Read(make([]byte, 4)) != 0 {
		t.Fatal("zero queue is not empty")
	}
	// Two small writes share one cell chunk; the third spills.
	q.Write(bytes.Repeat([]byte{1}, 300))
	q.Write(bytes.Repeat([]byte{2}, 200))
	if q.list.head != q.list.tail || q.Len() != 500 {
		t.Fatalf("500 bytes in two writes: %d bytes, one chunk = %v", q.Len(), q.list.head == q.list.tail)
	}
	q.Write(bytes.Repeat([]byte{3}, 100))
	if q.list.head == q.list.tail || len(q.list.head.data) != cellChunk || q.Len() != 600 {
		t.Fatalf("top-up: head holds %d of %d, queue %d", len(q.list.head.data), cellChunk, q.Len())
	}
	// One write larger than the largest class is split.
	big := make([]byte, maxChunk+midChunk+7)
	for i := range big {
		big[i] = byte(i * 31)
	}
	q.Write(big)
	want := append(append(append(bytes.Repeat([]byte{1}, 300), bytes.Repeat([]byte{2}, 200)...), bytes.Repeat([]byte{3}, 100)...), big...)
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	// Odd-sized reads cross every chunk boundary.
	var got []byte
	buf := make([]byte, 1000)
	for q.Len() > 0 {
		n := q.Read(buf[:1+len(got)%997])
		if n == 0 {
			t.Fatal("Read returned 0 from a non-empty queue")
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes read differ from bytes written")
	}
	if q.list.head != nil || q.list.tail != nil || q.off != 0 {
		t.Fatal("drained queue still holds a chunk")
	}
}

// TestConnNoStaleBytes: chunks are recycled without being cleared, so
// every length and offset must be exact — a reader may never see what a
// chunk's previous owner left in it. Shrinking writes reuse chunks that
// are mostly stale; reads are short and cross chunk boundaries.
func TestConnNoStaleBytes(t *testing.T) {
	sc, cl, sv := stepPair(0)
	rng := rand.New(rand.NewSource(1312))
	// Dirty every class's pool with a recognisable pattern.
	for _, n := range []int{cellChunk, midChunk, maxChunk} {
		for i := 0; i < 4; i++ {
			cl.Write(bytes.Repeat([]byte{0xEE}, n))
		}
	}
	sc.run()
	io.CopyN(io.Discard, sv, int64(4*(cellChunk+midChunk+maxChunk)))

	for round := 0; round < 200; round++ {
		var want []byte
		for w := 0; w < 1+rng.Intn(6); w++ {
			n := 1 + rng.Intn(1<<uint(1+rng.Intn(15)))
			p := make([]byte, n)
			for i := range p {
				p[i] = byte(round) &^ 0x80 // never 0xEE, never poisonByte
			}
			if rng.Intn(2) == 0 {
				cl.Write(p)
			} else {
				cl.WriteAsync(p)
			}
			want = append(want, p...)
		}
		sc.run()
		got := make([]byte, 0, len(want))
		buf := make([]byte, 1+rng.Intn(700))
		for len(got) < len(want) {
			n, err := sv.Read(buf[:1+rng.Intn(len(buf))])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: reader saw bytes that were never written", round)
		}
		sv.mu.Lock()
		left := sv.rx.Len()
		sv.mu.Unlock()
		if left != 0 {
			t.Fatalf("round %d: %d bytes left over", round, left)
		}
	}
}

// TestSetDeliverFuncHandsOverBacklog: bytes and an EOF that arrived
// before the callback existed reach it, in order, exactly once — what
// lets an exit relay send CONNECTED before it installs the callback.
func TestSetDeliverFuncHandsOverBacklog(t *testing.T) {
	sc, cl, sv := stepPair(time.Millisecond)
	cl.Write([]byte("ab"))
	cl.Write([]byte("cd"))
	sc.run()
	head := make([]byte, 1)
	sv.Read(head) // a partly read head chunk
	cl.Write([]byte("ef"))
	cl.Close()
	sc.run()

	var got []byte
	eofs := 0
	sv.SetDeliverFunc(func(data []byte, eof bool) {
		if eofs > 0 {
			t.Error("delivery after EOF")
		}
		got = append(got, data...)
		if eof {
			eofs++
		}
	})
	if string(head)+string(got) != "abcdef" || eofs != 1 {
		t.Fatalf("callback got %q and %d EOFs after %q, want \"bcdef\" and 1", got, eofs, head)
	}
}

// testFlowControlParity pins the receive-side flow control to the byte
// counts the bytes.Buffer implementation had: the sender pauses on the
// first chunk that takes the unread total past readBufMax, and resumes
// on the Read that brings it back to readBufMax or under.
func testFlowControlParity(t *testing.T, clock *Clock) {
	n := NewNetwork(clock, time.Millisecond)
	cl, sv := newConnPairOn(n)
	const chunks = 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := make([]byte, maxChunk)
		for i := 0; i < chunks; i++ {
			for j := range p {
				p[j] = byte(i)
			}
			if _, err := cl.Write(p); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		cl.Close()
	}()
	// awaitPaused polls until the sender is paused with the given unread total.
	awaitPaused := func(what string, unread int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			sv.mu.Lock()
			got, waiting := sv.rx.Len(), sv.senderWaiting
			sv.mu.Unlock()
			cl.mu.Lock()
			paused := cl.txWaitDrain
			cl.mu.Unlock()
			if got == unread && waiting && paused {
				return
			}
			if got > unread || time.Now().After(deadline) {
				t.Fatalf("%s: unread %d (sender waiting %v, paused %v), want paused at %d", what, got, waiting, paused, unread)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// 32 chunks are exactly readBufMax; the 33rd crosses it.
	pausedAt := readBufMax + maxChunk
	awaitPaused("initial fill", pausedAt)

	buf := make([]byte, maxChunk)
	read := func(n int) {
		t.Helper()
		if _, err := io.ReadFull(sv, buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	// One byte short of making room: still paused, nothing more delivered.
	read(maxChunk - 1)
	time.Sleep(20 * time.Millisecond)
	awaitPaused("one byte above the limit", readBufMax+1)
	// The byte that reaches the limit resumes the sender for one chunk.
	read(1)
	awaitPaused("after resume", pausedAt)

	// Drain: chunk 0 is consumed; the rest arrives whole and in order.
	for i := 1; i < chunks; i++ {
		read(maxChunk)
		if buf[0] != byte(i) || buf[maxChunk-1] != byte(i) {
			t.Fatalf("chunk %d carries %#x..%#x", i, buf[0], buf[maxChunk-1])
		}
	}
	if n, err := sv.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("after the last chunk: %d bytes, %v; want EOF", n, err)
	}
	wg.Wait()
}

func TestFlowControlParityLegacyCore(t *testing.T) { testFlowControlParity(t, NewClock(0.001)) }
func TestFlowControlParityEventCore(t *testing.T)  { testFlowControlParity(t, eventClock(t)) }
