package relay

import (
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/simnet"
)

// The relay forward path is pipelined, and what moves through it is a
// run of cells, not a cell: link readers decrypt nothing — they pull
// every whole cell the link already holds (cell.ReadRun, at most
// cell.BurstCells) into one pooled burst and enqueue it on the run
// queue of the circuit's affinity worker (hash of circuit ID → worker).
// Each worker drains its queue into a small batch, runs batched AES-CTR
// over consecutive same-circuit runs, and finishes every cell in order:
// recognition check, then dispatch, or circuit-ID rewrite and hand-off
// of the run's forwarded cells to the next link's BatchWriter in one
// enqueue. Cells of one circuit always land on one worker in read
// order, so per-circuit crypto state needs no locking and cell order is
// preserved end to end; distinct circuits proceed in parallel with no
// global lock anywhere on the path. A lone cell is a run of one and
// takes the same path.
const (
	// maxFwdBatch is the cell count at which a worker stops draining
	// further runs into one pass — both the batched-crypto span and the
	// latency bound a queued cell can wait behind. A pass holds at most
	// maxFwdBatch-1+cell.BurstCells cells.
	maxFwdBatch = 32
	// fwdQueueDepth bounds each worker's run queue, in runs of up to
	// cell.BurstCells cells: at most 1024 cells, which with the drain pass
	// and the writer bound must fit the gap below maxSpillCells (see
	// spillHighWater). Enqueue blocks when the worker is this far behind,
	// pushing backpressure onto the inbound link reader (and from there
	// to the sender), exactly as the old one-goroutine-per-circuit model
	// did via the read loop.
	fwdQueueDepth = 64
	// maxSpillCells bounds a circuit's spill queue (cells diverted when
	// its egress link is full). Beyond it the circuit is killed rather
	// than letting one dead link accumulate unbounded memory.
	maxSpillCells = 4096
	// spillHighWater is the backlog at which a circuit's inbound link
	// reader stalls (see circuitEnd.pace): per-circuit backpressure
	// toward the sender, exactly the role the old per-circuit goroutine
	// played by blocking on the egress write. Workers never block, so
	// the gap to maxSpillCells absorbs everything already in flight
	// (worker queue + drain pass + writer bound, all counted in cells:
	// 64×16 + 47 + 272) and the kill bound is unreachable for a
	// healthy-but-slow circuit.
	spillHighWater = maxSpillCells / 2
)

// fwdTask is one unit of forward-path work: a run of inbound RELAY
// cells for a circuit, in a pooled burst the worker now owns, or — with
// a nil run — the teardown sentinel the link reader enqueues after the
// final cell, so teardown happens on the worker strictly after every
// cell that preceded it.
type fwdTask struct {
	ce  *circuitEnd
	run *cell.Burst
}

// cells is what the task counts for toward a drain pass.
func (t fwdTask) cells() int {
	if t.run == nil {
		return 1
	}
	return t.run.N
}

// forwarder owns the relay's worker pool: one bounded run queue per
// worker, workers numbered 0..n-1. Only link readers enqueue; the
// queues close after every reader has exited (Relay.Close waits), so a
// send on a closed queue is impossible by construction.
type forwarder struct {
	r      *Relay
	queues []chan fwdTask
	depth  []*obs.Gauge
	wg     sync.WaitGroup
}

func newForwarder(r *Relay, workers int) *forwarder {
	if workers < 1 {
		workers = 1
	}
	f := &forwarder{
		r:      r,
		queues: make([]chan fwdTask, workers),
		depth:  make([]*obs.Gauge, workers),
	}
	for i := range f.queues {
		f.queues[i] = make(chan fwdTask, fwdQueueDepth)
		f.depth[i] = r.reg.Gauge(fmt.Sprintf("relay.worker_queue_depth.%d", i))
		f.wg.Add(1)
		go f.run(i)
	}
	return f
}

// workerFor maps a circuit ID to its affinity worker. Circuit IDs are
// random per link, so a multiplicative hash spreads them evenly; two
// circuits that collide merely share a worker.
func (f *forwarder) workerFor(circID uint32) int {
	return int((circID * 2654435761) % uint32(len(f.queues)))
}

func (f *forwarder) enqueue(worker int, t fwdTask) {
	q := f.queues[worker]
	q <- t
	f.depth[worker].Set(int64(len(q)))
}

// stop closes the run queues and waits for the workers to drain them.
// Callers must guarantee no enqueuer is left (Relay.Close waits for
// every link reader first).
func (f *forwarder) stop() {
	for _, q := range f.queues {
		close(q)
	}
	f.wg.Wait()
}

func (f *forwarder) run(idx int) {
	defer f.wg.Done()
	q := f.queues[idx]
	batch := make([]fwdTask, 0, maxFwdBatch)
	payloads := make([][]byte, 0, maxFwdBatch+cell.BurstCells)
	var scratch otr.CryptScratch
	for t := range q {
		batch = append(batch[:0], t)
		cells := t.cells()
	fill:
		for cells < maxFwdBatch {
			select {
			case t2, ok := <-q:
				if !ok {
					break fill
				}
				batch = append(batch, t2)
				cells += t2.cells()
			default:
				break fill
			}
		}
		f.depth[idx].Set(int64(len(q)))
		f.r.m.batchCells.Observe(int64(cells))
		payloads = f.process(batch, payloads, &scratch)
	}
}

// process decrypts and finishes one drained batch. Consecutive runs of
// the same circuit become one batched ApplyForward pass (one keystream
// generation for all their cells — byte-identical to per-cell calls);
// every cell is then finished strictly in batch order, so per-circuit
// ordering survives batching. It consumes the runs (back to the pool)
// and returns the payload scratch slice so its capacity is reused
// across batches.
func (f *forwarder) process(batch []fwdTask, payloads [][]byte, scratch *otr.CryptScratch) [][]byte {
	for i := 0; i < len(batch); {
		t := batch[i]
		if t.run == nil {
			// Teardown sentinel: run it off-worker — teardown flushes and
			// closes writers, which may block on a congested link, and no
			// later task for this circuit exists (the sentinel is the link
			// reader's last word).
			go t.ce.teardown()
			i++
			continue
		}
		j := i + 1
		for j < len(batch) && batch[j].ce == t.ce && batch[j].run != nil {
			j++
		}
		same := batch[i:j]
		i = j
		if !t.ce.destroyed.Load() {
			payloads = payloads[:0]
			for _, rt := range same {
				for k := 0; k < rt.run.N; k++ {
					payloads = append(payloads, cell.WirePayload(rt.run.Frame(k)))
				}
			}
			t.ce.layer.ApplyForwardBatch(payloads, scratch)
			for _, rt := range same {
				f.finishRun(rt.ce, rt.run)
			}
		}
		for _, rt := range same {
			cell.PutBurst(rt.run)
		}
	}
	return payloads
}

// finishRun completes one already-decrypted run, cell by cell in order.
// Every cell gets its own recognition check and digest verification;
// what the run shares is the hand-offs around them. Consecutive cells
// addressed past this hop form a span that leaves through one writer
// enqueue (forwardSpan); consecutive recognized DATA cells of one stream
// are gathered in place into one destination write. Both are flushed
// before any other recognized command is dispatched and at the end of
// the run, so what a stream's destination and the next hop see — DATA
// before END, CREATE before the cells sent behind an EXTEND — is in the
// order the cells arrived. The run stays the caller's.
func (f *forwarder) finishRun(ce *circuitEnd, run *cell.Burst) {
	r := f.r
	data := exitData{ce: ce, run: run}
	span := 0 // first cell of the forward span being collected
	for k := 0; k < run.N; k++ {
		payload := cell.WirePayload(run.Frame(k))
		if !cell.Recognized(payload) || !ce.layer.VerifyForward(payload, cell.DigestOffset) {
			continue // addressed past this hop: joins the span
		}
		f.forwardSpan(ce, run.Buf[span*cell.Size:k*cell.Size])
		span = k + 1
		r.m.recognized.Inc()
		hdr, body, err := cell.ParseRelay(payload)
		if err == nil && hdr.Cmd == cell.RelayData {
			if hdr.StreamID != data.stream {
				data.flush()
				data.stream = hdr.StreamID
			}
			data.Add(run, k, len(body))
			continue
		}
		data.flush()
		if err != nil {
			r.logf("bad relay payload: %v", err)
			ce.kill()
		} else if !r.dispatchRelay(ce, hdr, body) {
			ce.kill()
		}
	}
	f.forwardSpan(ce, run.Buf[span*cell.Size:run.N*cell.Size])
	data.flush()
}

// exitData is the DATA of consecutive cells of one exit stream, gathered
// in place in the run being finished and written to the stream's
// destination in one Write (the relay-side twin of torclient's
// streamData).
type exitData struct {
	ce     *circuitEnd
	run    *cell.Burst
	stream uint16
	cell.DataRun
}

func (d *exitData) flush() {
	if !d.Empty() {
		d.ce.relay.handleData(d.ce, d.stream, d.Take(d.run))
	}
}

// forwardSpan sends a contiguous span of cells addressed past this hop
// on their way: circuit-ID rewrite and one non-blocking enqueue toward
// the next hop, or — on a rendezvous splice — one backward run on the
// joined circuit. The span stays the caller's (both paths copy).
func (f *forwarder) forwardSpan(ce *circuitEnd, frames []byte) {
	if len(frames) == 0 {
		return
	}
	r := f.r
	n := int64(len(frames) / cell.Size)
	ce.mu.Lock()
	nextW, nextID := ce.nextW, ce.nextCircID
	joined := ce.joined
	ce.mu.Unlock()
	switch {
	case nextW != nil:
		for off := 0; off < len(frames); off += cell.Size {
			cell.SetWireCircID(frames[off:], nextID)
		}
		r.m.fwdCells.Add(n)
		if ce.fwdSpill.sendFrames(frames, false) != nil {
			ce.kill()
		}
	case joined != nil:
		// Rendezvous splice: the still-encrypted payloads continue as
		// backward cells on the joined circuit. Never block the worker on
		// the joined circuit's client link.
		if joined.relayBackwardRun(frames, false) != nil {
			ce.kill()
		}
	default:
		r.logf("unrecognized relay cell at last hop, dropping circuit")
		r.m.dropped.Add(n)
		ce.kill()
	}
}

// --- spill queues ------------------------------------------------------------

// errSpillOverflow kills a circuit whose egress link stayed full past
// the spill bound.
var errSpillOverflow = errors.New("relay: egress spill queue overflow")

// spillQueue guards one circuit's egress writer against head-of-line
// blocking the worker. The fast path is a non-blocking enqueue of the
// whole run straight into the BatchWriter; when the link is full (or a
// drain is already running, which must stay FIFO), the run's bytes
// divert into a bounded queue drained, a burst at a time, by a lazily
// started goroutine that may block. Senders are externally serialized
// (the affinity worker for the forward direction, bwMu for the backward
// direction), so enqueue order — which is crypto order — always equals
// wire order. The bounds count cells, whatever size the runs are.
//
// The queue is a simnet.ChunkQueue: pooled chunks linked through
// themselves, so it holds memory in proportion to its backlog and none
// when empty, however many cells have passed through.
type spillQueue struct {
	w       *cell.BatchWriter
	spilled *obs.Counter
	backlog atomic.Int64 // cells queued, maintained for lock-free pacing

	mu     sync.Mutex
	space  sync.Cond // blocking senders wait below the bound
	q      simnet.ChunkQueue
	active bool // drain goroutine running
	failed bool // overflowed or write error: drop everything further
}

func (s *spillQueue) init(w *cell.BatchWriter, spilled *obs.Counter) {
	s.w = w
	s.spilled = spilled
	s.space.L = &s.mu
}

// waitBelow blocks while the spill backlog is at or above n cells. It is
// the pacing hook for a circuit's inbound link reader; a failed queue
// never blocks (the circuit is dying — the reader must keep moving so
// its conn error surfaces and teardown runs).
func (s *spillQueue) waitBelow(n int) {
	if s.backlog.Load() < int64(n) {
		return
	}
	s.mu.Lock()
	for !s.failed && s.q.Len()/cell.Size >= n {
		s.space.Wait()
	}
	s.mu.Unlock()
}

// sendFrames hands a run of whole frames toward the egress writer: one
// writer enqueue when the queue is idle, one queue append when it is
// not. frames stays the caller's — the writer and the queue both copy.
// Without mayBlock (the affinity worker) a full link diverts the run to
// the queue and a full queue fails the circuit; with it (dedicated
// goroutines: exit readers, backward pumps) a full link or queue waits
// instead — stream-level backpressure for callers that may safely stall.
func (s *spillQueue) sendFrames(frames []byte, mayBlock bool) error {
	n := len(frames) / cell.Size
	s.mu.Lock()
	if s.failed {
		s.mu.Unlock()
		return errSpillOverflow
	}
	if !s.active {
		if mayBlock {
			// Queue empty and no drain: a direct blocking write preserves
			// order because concurrent senders are excluded by the caller's
			// serialization.
			s.mu.Unlock()
			return s.w.WriteFrames(frames)
		}
		ok, err := s.w.TryWriteFrames(frames)
		if err != nil || ok {
			s.mu.Unlock()
			return err
		}
	}
	if mayBlock {
		for s.active && s.q.Len()/cell.Size >= maxSpillCells && !s.failed {
			s.space.Wait()
		}
		if s.failed {
			s.mu.Unlock()
			return errSpillOverflow
		}
		if !s.active {
			s.mu.Unlock()
			return s.w.WriteFrames(frames)
		}
	} else if s.q.Len()/cell.Size+n > maxSpillCells {
		s.failed = true
		s.space.Broadcast()
		s.mu.Unlock()
		return errSpillOverflow
	}
	s.spilled.Add(int64(n))
	s.q.Write(frames)
	s.backlog.Add(int64(n))
	if !s.active {
		s.active = true
		go s.drain()
	}
	s.mu.Unlock()
	return nil
}

// drain writes the queued cells FIFO, a burst per link write, blocking
// as the link allows, and retires itself when the queue empties. On a
// write error it keeps consuming so senders fail fast. The burst it
// copies through is held only while it runs.
func (s *spillQueue) drain() {
	b := cell.GetBurst(cell.BurstCells)
	defer cell.PutBurst(b)
	for {
		s.mu.Lock()
		if s.q.Len() == 0 {
			s.active = false
			s.space.Broadcast()
			s.mu.Unlock()
			return
		}
		// The queue only ever holds whole cells and Buf is a whole number
		// of them, so every read is too.
		n := s.q.Read(b.Buf[:])
		s.backlog.Add(-int64(n / cell.Size))
		failed := s.failed
		s.space.Broadcast()
		s.mu.Unlock()

		if failed {
			continue
		}
		if err := s.w.WriteFrames(b.Buf[:n]); err != nil {
			s.mu.Lock()
			s.failed = true
			s.space.Broadcast()
			s.mu.Unlock()
		}
	}
}

// --- parallel forward benchmark ---------------------------------------------

// nopWriteCloser discards writes (the benchmark's egress link).
type nopWriteCloser struct{}

func (nopWriteCloser) Write(p []byte) (int, error) { return len(p), nil }
func (nopWriteCloser) Close() error                { return nil }

var _ io.WriteCloser = nopWriteCloser{}

// RunParallelForwardBench measures the sharded worker datapath in
// isolation: `circuits` middle-hop circuits, each fed cellsPerCircuit
// random (unrecognized) relay cells in full runs (what a link reader
// hands over when its link is saturated), processed by `workers` workers
// — decrypt, recognition check, circuit-ID rewrite, hand-off to a
// discarding egress writer. It returns aggregate forwarded cells/s.
// The caller pins runtime.GOMAXPROCS to sweep core counts.
func RunParallelForwardBench(workers, circuits, cellsPerCircuit int) float64 {
	r := &Relay{
		cfg:     Config{Quiet: true},
		m:       newRelayMetrics(nil),
		closing: make(chan struct{}),
	}
	r.initTables()
	r.fwd = newForwarder(r, workers)

	rng := mrand.New(mrand.NewSource(42))
	ces := make([]*circuitEnd, circuits)
	writers := make([]*cell.BatchWriter, circuits)
	for i := range ces {
		keys := make([]byte, otr.KeyMaterialLen)
		rng.Read(keys)
		layer, err := otr.NewLayer(keys)
		if err != nil {
			panic(err)
		}
		w := cell.NewBatchWriter(nopWriteCloser{})
		writers[i] = w
		ce := &circuitEnd{
			relay:      r,
			serial:     uint64(i + 1),
			circID:     rng.Uint32(),
			layer:      layer,
			prevW:      w,
			nextW:      w,
			nextCircID: rng.Uint32(),
			streams:    map[uint16]net.Conn{},
			bwWire:     make([]byte, cell.Size),
		}
		ce.fwdSpill.init(w, nil)
		ce.bwSpill.init(w, nil)
		ce.worker = r.fwd.workerFor(ce.circID)
		ces[i] = ce
	}

	var wg sync.WaitGroup
	start := time.Now()
	for ci, ce := range ces {
		wg.Add(1)
		go func(ci int, ce *circuitEnd) {
			defer wg.Done()
			// A fixed template per circuit; decrypting random bytes yields
			// random bytes, so cells stay unrecognized (a 2^-16 accidental
			// recognized-field hit still fails digest verification and
			// forwards like any other cell).
			var tmpl [cell.Size]byte
			mrand.New(mrand.NewSource(int64(ci))).Read(tmpl[:])
			cell.SetWireCmd(tmpl[:], cell.CmdRelay)
			// A saturated inbound link: every ReadRun finds a full burst.
			for sent := 0; sent < cellsPerCircuit; {
				run := cell.GetBurst(cell.BurstCells)
				for run.N < cell.BurstCells && sent < cellsPerCircuit {
					copy(run.Frame(run.N), tmpl[:])
					run.N++
					sent++
				}
				r.fwd.enqueue(ce.worker, fwdTask{ce: ce, run: run})
			}
		}(ci, ce)
	}
	wg.Wait()
	r.fwd.stop()
	elapsed := time.Since(start)
	for _, w := range writers {
		w.Close()
	}
	return float64(circuits*cellsPerCircuit) / elapsed.Seconds()
}
