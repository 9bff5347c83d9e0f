package cell

import (
	"errors"
	"io"
	"sync"

	"github.com/bento-nfv/bento/internal/obs"
)

// ErrWriterClosed is returned by BatchWriter enqueues after Close.
var ErrWriterClosed = errors.New("cell: batch writer closed")

// maxBatchCells bounds the bytes queued in a BatchWriter before
// enqueuers block, providing per-link backpressure toward the circuit's
// origin (the same role the kernel socket buffer plays for real Tor).
const maxBatchCells = 256

// BatchWriter coalesces cells queued for one link into batched Write
// calls — the writev-style half of the zero-copy datapath. While a
// (possibly blocking) Write is in flight, every cell enqueued behind it
// accumulates into a single buffer and goes out in one call, amortizing
// per-write costs (the emulator's token-bucket and delivery bookkeeping)
// across the whole batch.
//
// Latency: when the link is idle — no write in flight and nothing
// pending — an enqueuer writes its cell directly on its own goroutine
// instead of handing off to the flusher. Request/response traffic
// therefore pays no goroutine-wakeup latency (it behaves exactly like a
// direct conn.Write); the flusher only takes over when cells queue up
// behind an in-flight write, which is the regime where batching wins.
//
// Ordering: at most one write is in flight at a time (the writing flag),
// and queued cells live in a single FIFO pending buffer, so cells leave
// in exactly enqueue order. Callers that need crypto state to advance in
// wire order (rolling digests) must enqueue under the same lock that
// guards the crypto; enqueue order then equals wire order end to end.
//
// Ownership: callers may reuse their wire buffer the moment an enqueue
// returns — a queued frame is copied into the writer's pending buffer,
// an inline one has been written (and copied by the conn) by then.
type BatchWriter struct {
	conn io.WriteCloser
	// flushObs, when non-nil, records the size of every link write in
	// cells. It is set at construction only (never mutated afterwards),
	// so both the inline path and the flusher read it without locking;
	// Observe is atomic and allocation-free, keeping the datapath's
	// zero-alloc contract intact.
	flushObs *obs.Histogram

	mu       sync.Mutex
	hasData  sync.Cond // flusher waits: pending non-empty and link idle, or closed/err
	hasSpace sync.Cond // enqueuers wait: pending below bound
	pending  []byte
	spare    []byte // last flushed buffer, recycled for the next swap
	writing  bool   // a Write (inline or flusher) is in flight
	err      error
	closed   bool
	done     chan struct{} // flusher exited; conn is closed
}

// NewBatchWriter starts a writer (and its flusher goroutine) over conn.
func NewBatchWriter(conn io.WriteCloser) *BatchWriter {
	return NewBatchWriterObs(conn, nil)
}

// NewBatchWriterObs is NewBatchWriter with a flush-size histogram
// attached: every link write records its size in cells. A nil
// histogram disables the observation (it is the no-op telemetry
// sink), making this identical to NewBatchWriter.
func NewBatchWriterObs(conn io.WriteCloser, flush *obs.Histogram) *BatchWriter {
	w := &BatchWriter{conn: conn, flushObs: flush, done: make(chan struct{})}
	w.hasData.L = &w.mu
	w.hasSpace.L = &w.mu
	go w.flushLoop()
	return w
}

// WriteFrame queues one wire frame (exactly Size bytes): the one-cell
// case of WriteFrames.
func (w *BatchWriter) WriteFrame(frame []byte) error {
	return w.WriteFrames(frame[:Size])
}

// WriteFrames queues len(frames)/Size wire frames — a contiguous run of
// whole cells — under one lock acquisition, writing them inline when the
// link is idle. Batched senders (the client's multi-cell data path, a
// relay's backward pump moving a run) use this to amortize the per-cell
// lock/signal cost across the run. It blocks while the link is
// maxBatchCells behind; the space check happens once for the whole run,
// so a large batch may overshoot the bound by up to its own size (the
// bound is backpressure, not a hard buffer limit).
func (w *BatchWriter) WriteFrames(frames []byte) error {
	if len(frames)%Size != 0 {
		return errors.New("cell: WriteFrames requires whole frames")
	}
	w.mu.Lock()
	for len(w.pending) >= maxBatchCells*Size && w.err == nil && !w.closed {
		w.hasSpace.Wait()
	}
	if err := w.failedLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	if !w.writing && len(w.pending) == 0 {
		return w.writeInlineLocked(frames)
	}
	w.pending = append(w.pending, frames...)
	w.hasData.Signal()
	w.mu.Unlock()
	return nil
}

// TryWriteFrames queues a run of whole wire frames without ever
// blocking — one lock, one flusher signal for the run: it returns
// (false, nil) when the link is maxBatchCells behind instead of waiting
// for space (the run is taken whole or not at all; like WriteFrames it
// may overshoot the bound by its own size). It also never takes the
// idle-inline path — the run is always handed to the flusher — because
// the underlying Write can stall (a partitioned or rate-limited link),
// and Try callers are exactly the ones that must not be stalled by one
// slow link. Relay workers use this on the forward path and divert to a
// per-circuit spill queue on false, so one congested circuit cannot
// head-of-line-block its worker.
func (w *BatchWriter) TryWriteFrames(frames []byte) (bool, error) {
	if len(frames)%Size != 0 {
		return false, errors.New("cell: TryWriteFrames requires whole frames")
	}
	w.mu.Lock()
	if err := w.failedLocked(); err != nil {
		w.mu.Unlock()
		return false, err
	}
	if len(w.pending) >= maxBatchCells*Size {
		w.mu.Unlock()
		return false, nil
	}
	w.pending = append(w.pending, frames...)
	w.hasData.Signal()
	w.mu.Unlock()
	return true, nil
}

// QueuedCells reports how many whole cells are queued behind the link,
// plus one when a write is in flight. Zero means the writer is fully
// drained. Stats and tests only — the datapath never polls this.
func (w *BatchWriter) QueuedCells() int {
	w.mu.Lock()
	n := len(w.pending) / Size
	if w.writing {
		n++
	}
	w.mu.Unlock()
	return n
}

// WriteCell queues a Cell value (control cells built on cold paths),
// serializing it straight into the writer's buffer.
func (w *BatchWriter) WriteCell(c *Cell) error {
	w.mu.Lock()
	for len(w.pending) >= maxBatchCells*Size && w.err == nil && !w.closed {
		w.hasSpace.Wait()
	}
	if err := w.failedLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	if !w.writing && len(w.pending) == 0 {
		// spare is the writer's alone while writing is set.
		w.spare = c.AppendWire(w.spare[:0])
		return w.writeInlineLocked(w.spare)
	}
	w.pending = c.AppendWire(w.pending)
	w.hasData.Signal()
	w.mu.Unlock()
	return nil
}

// writeInlineLocked performs the idle-link fast path: the caller becomes
// the writer for buf — its own frames, written where they are (the conn
// copies before Write returns, and the caller cannot touch them until
// this does), so an idle link costs a run no copy and the writer no
// buffer. Called with w.mu held and w.writing false; unlocks around the
// Write and returns unlocked.
func (w *BatchWriter) writeInlineLocked(buf []byte) error {
	w.writing = true
	w.mu.Unlock()
	w.flushObs.Observe(int64(len(buf) / Size))
	_, err := w.conn.Write(buf)
	w.mu.Lock()
	w.writing = false
	if err != nil && w.err == nil {
		w.err = err
	}
	// Anything that queued behind this write (or a pending Close) is now
	// the flusher's job.
	if len(w.pending) > 0 || w.err != nil || w.closed {
		w.hasData.Signal()
	}
	w.hasSpace.Broadcast()
	w.mu.Unlock()
	return err
}

func (w *BatchWriter) failedLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrWriterClosed
	}
	return nil
}

// Close flushes queued cells, closes the underlying conn, and waits for
// the flusher to exit. It is idempotent and safe to call concurrently
// with enqueuers (they fail with ErrWriterClosed from this point on).
// The wait cannot hang: every peer in the overlay either keeps reading
// until its conn closes or closes the conn when it exits, so a blocked
// flush always resolves.
func (w *BatchWriter) Close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		w.hasData.Broadcast()
		w.hasSpace.Broadcast()
	}
	w.mu.Unlock()
	<-w.done
}

func (w *BatchWriter) flushLoop() {
	defer close(w.done)
	w.mu.Lock()
	for {
		for (len(w.pending) == 0 || w.writing) && w.err == nil && !w.closed {
			w.hasData.Wait()
		}
		if w.writing {
			// Closed or errored with an inline write in flight; let it
			// finish so the swap below never races a live buffer.
			w.hasData.Wait()
			continue
		}
		if w.err != nil || len(w.pending) == 0 { // err, or closed and drained
			break
		}
		buf := w.pending
		w.pending = w.spare[:0]
		w.writing = true
		w.mu.Unlock()
		w.flushObs.Observe(int64(len(buf) / Size))
		_, err := w.conn.Write(buf)
		w.mu.Lock()
		w.spare = buf
		w.writing = false
		if err != nil && w.err == nil {
			w.err = err
		}
		w.hasSpace.Broadcast()
	}
	w.mu.Unlock()
	w.conn.Close()
}
