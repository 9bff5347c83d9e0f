package cell

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// recordConn records everything written to it, optionally sleeping per
// Write call to force cells to queue behind an in-flight write.
type recordConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	delay  time.Duration
	closed bool
}

func (c *recordConn) Write(p []byte) (int, error) {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return c.buf.Write(p)
}

func (c *recordConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *recordConn) snapshot() ([]byte, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...), c.writes, c.closed
}

// TestBatchWriterOrder drives one producer through a slow conn: every
// frame must arrive exactly once in enqueue order. (A lone producer
// takes the inline path for every cell — batching needs cells arriving
// while a write is in flight, covered by the concurrent test below.)
func TestBatchWriterOrder(t *testing.T) {
	conn := &recordConn{delay: 200 * time.Microsecond}
	w := NewBatchWriter(conn)

	const n = 300
	frame := make([]byte, Size)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(frame[0:4], uint32(i))
		if err := w.WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	data, _, closed := conn.snapshot()
	if !closed {
		t.Fatal("Close did not close the conn")
	}
	if len(data) != n*Size {
		t.Fatalf("got %d bytes, want %d", len(data), n*Size)
	}
	for i := 0; i < n; i++ {
		if got := binary.BigEndian.Uint32(data[i*Size:]); got != uint32(i) {
			t.Fatalf("frame %d out of order: got seq %d", i, got)
		}
	}
}

// TestBatchWriterIdleFastPath checks the latency fast path: on an idle
// link each cell goes out in its own Write, from the caller's goroutine,
// with no flusher handoff to wait for.
func TestBatchWriterIdleFastPath(t *testing.T) {
	conn := &recordConn{}
	w := NewBatchWriter(conn)
	frame := make([]byte, Size)
	for i := 0; i < 10; i++ {
		if err := w.WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
		// The write completed synchronously: bytes are on the conn the
		// moment WriteFrame returns.
		if data, writes, _ := conn.snapshot(); len(data) != (i+1)*Size || writes != i+1 {
			t.Fatalf("cell %d: %d bytes in %d writes, want synchronous 1:1", i, len(data), writes)
		}
	}
	w.Close()
}

// TestBatchWriterConcurrentProducers hammers one writer from several
// goroutines (run under -race in check.sh): every cell must arrive
// intact — never torn mid-frame — and per-producer counts must add up.
func TestBatchWriterConcurrentProducers(t *testing.T) {
	conn := &recordConn{delay: 50 * time.Microsecond}
	w := NewBatchWriter(conn)

	const producers, perProducer = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := &Cell{CircID: uint32(p)}
			for j := range c.Payload {
				c.Payload[j] = byte(p)
			}
			frame := make([]byte, Size)
			c.EncodeInto(frame)
			for i := 0; i < perProducer; i++ {
				if err := w.WriteFrame(frame); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	w.Close()

	data, writes, _ := conn.snapshot()
	if len(data) != producers*perProducer*Size {
		t.Fatalf("got %d bytes, want %d", len(data), producers*perProducer*Size)
	}
	if writes >= producers*perProducer {
		t.Fatalf("no batching happened: %d writes for %d cells", writes, producers*perProducer)
	}
	counts := make([]int, producers)
	for off := 0; off < len(data); off += Size {
		p := int(WireCircID(data[off:]))
		counts[p]++
		for _, b := range WirePayload(data[off : off+Size]) {
			if b != byte(p) {
				t.Fatalf("torn frame at offset %d: payload byte %d in producer-%d cell", off, b, p)
			}
		}
	}
	for p, c := range counts {
		if c != perProducer {
			t.Fatalf("producer %d: %d cells arrived, want %d", p, c, perProducer)
		}
	}
}

// TestBatchWriterWriteFrames covers the multi-frame enqueue: whole runs
// arrive intact and in order, interleaved runs from concurrent producers
// never tear, and a misaligned buffer is rejected.
func TestBatchWriterWriteFrames(t *testing.T) {
	conn := &recordConn{delay: 100 * time.Microsecond}
	w := NewBatchWriter(conn)

	if err := w.WriteFrames(make([]byte, Size+1)); err == nil {
		t.Fatal("misaligned WriteFrames accepted")
	}

	const producers, runs, runLen = 3, 40, 8
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			run := make([]byte, runLen*Size)
			for r := 0; r < runs; r++ {
				for i := 0; i < runLen; i++ {
					f := run[i*Size:]
					binary.BigEndian.PutUint32(f[0:4], uint32(p))
					// Sequence within the producer rides in the payload.
					binary.BigEndian.PutUint32(WirePayload(f[:Size]), uint32(r*runLen+i))
				}
				if err := w.WriteFrames(run); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	w.Close()

	data, _, _ := conn.snapshot()
	if len(data) != producers*runs*runLen*Size {
		t.Fatalf("got %d bytes, want %d", len(data), producers*runs*runLen*Size)
	}
	next := make([]uint32, producers)
	for off := 0; off < len(data); off += Size {
		f := data[off : off+Size]
		p := WireCircID(f)
		seq := binary.BigEndian.Uint32(WirePayload(f))
		if seq != next[p] {
			t.Fatalf("producer %d: seq %d arrived, want %d (reordered or torn run)", p, seq, next[p])
		}
		next[p]++
	}
}

// TestBatchWriterWriteAfterClose locks in the fail-fast contract.
func TestBatchWriterWriteAfterClose(t *testing.T) {
	w := NewBatchWriter(&recordConn{})
	w.Close()
	if err := w.WriteFrame(make([]byte, Size)); err != ErrWriterClosed {
		t.Fatalf("WriteFrame after Close: %v, want ErrWriterClosed", err)
	}
	w.Close() // idempotent
}
