package relay

import (
	"errors"
	"fmt"
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

// The goroutine transport: what serves a circuit whose links are not
// event-native (every link on the wall-backed clock). Its forward path
// is pipelined, and what moves through it is a run of cells, not a cell:
// link readers decrypt nothing — they pull every whole cell the link
// already holds (cell.ReadRun, at most cell.BurstCells) into one pooled
// burst and enqueue it on the run queue of the circuit's affinity worker
// (hash of circuit ID → worker). Each worker drains its queue into a
// small batch, runs batched AES-CTR over consecutive same-circuit runs,
// and hands every run to the circuit's finishRun in order. Cells of one
// circuit always land on one worker in read order, so per-circuit crypto
// state needs no locking and cell order is preserved end to end;
// distinct circuits proceed in parallel with no global lock anywhere on
// the path. A lone cell is a run of one and takes the same path. Workers
// never block: a full egress link spills (spillQueue), and a command
// that dials moves to a helper (circuit.startHelper).
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
	// maxSpillCells bounds a circuit's spill queues (cells diverted when
	// an egress link is full) and the queue behind its helper. Beyond it
	// the circuit is killed rather than letting one dead link accumulate
	// unbounded memory.
	maxSpillCells = 4096
	// spillHighWater is the backlog at which a circuit's inbound link
	// reader stalls (see goLink.pace): per-circuit backpressure toward the
	// sender, exactly the role the old per-circuit goroutine played by
	// blocking on the egress write. Workers never block, so the gap to
	// maxSpillCells absorbs everything already in flight (worker queue +
	// drain pass + writer bound, all counted in cells: 64×16 + 47 + 272)
	// and the kill bound is unreachable for a healthy-but-slow circuit.
	spillHighWater = maxSpillCells / 2
	// stalledCreateTimeout is how much longer, in virtual time, an EXTEND
	// may wait for CREATED once the link reader has stalled behind it. No
	// timer runs for a client that waits for its EXTENDED before sending
	// more, which is every client but a hostile one.
	stalledCreateTimeout = 60 * time.Second
)

// goLink is a circuit on the goroutine transport: the circuit, plus the
// writers, spill queues and batch scratch its links need.
type goLink struct {
	circuit
	conn  net.Conn          // inbound link; closing it stops the link reader
	prevW *cell.BatchWriter // batched writer toward the circuit origin
	nextW *cell.BatchWriter // toward the next hop, nil at the last hop; guarded by mu

	// fwdSpill and bwSpill guard the two writers: cell handlers enqueue
	// through them without ever blocking (see spillQueue).
	fwdSpill, bwSpill spillQueue

	// bwBatch is the contiguous multi-frame scratch behind
	// sendBackwardBatch (lazily allocated: only exit circuits need it),
	// with bwViews/bwScratch its reused payload views and keystream
	// scratch. All guarded by bwMu.
	bwBatch   []byte
	bwViews   [][]byte
	bwScratch otr.CryptScratch
}

// newGoLink wires conn, already wrapped in prevW, to a new circuit.
func (r *Relay) newGoLink(conn net.Conn, prevW *cell.BatchWriter) *goLink {
	g := &goLink{conn: conn, prevW: prevW}
	g.init(r, g)
	g.bwSpill.init(prevW, r.m.spilled)
	return g
}

func (g *goLink) writeClient(frames []byte, mayBlock bool) error {
	return g.bwSpill.sendFrames(frames, mayBlock)
}

func (g *goLink) writeNext(frames []byte, mayBlock bool) error {
	return g.fwdSpill.sendFrames(frames, mayBlock)
}

// writeConn blocks while the conn is full. For an exit destination that
// is still a recorded limit (DESIGN.md §13): the caller may be a worker.
func (g *goLink) writeConn(conn net.Conn, p []byte) error {
	_, err := conn.Write(p)
	return err
}

func (g *goLink) attachNext(next net.Conn) bool {
	w := cell.NewBatchWriterObs(next, g.relay.m.flush)
	g.mu.Lock()
	dead := g.destroyed.Load()
	if !dead {
		g.nextW = w
		g.fwdSpill.init(w, g.relay.m.spilled)
	}
	g.mu.Unlock()
	if dead {
		w.Close()
		return false
	}
	go g.backwardPump(next)
	return true
}

func (g *goLink) attachStream(streamID uint16, remote net.Conn) {
	go g.exitReader(streamID, remote)
}

// sever closes the inbound link. The link reader then exits and enqueues
// the teardown sentinel, so teardown still happens on the worker after
// every cell read before the failure.
func (g *goLink) sever(mayBlock bool) {
	if mayBlock {
		g.prevW.Close() // flushes first
	} else {
		g.conn.Close()
	}
}

// closeLinks flushes and closes the next-hop link; the client link is
// serveConn's to close.
func (g *goLink) closeLinks() {
	g.mu.Lock()
	nextW := g.nextW
	g.mu.Unlock()
	if nextW != nil {
		nextW.Close()
	}
}

// serveConn handles one inbound link (= one circuit): the CREATE
// handshake, then readCircuit.
func (r *Relay) serveConn(conn net.Conn) {
	defer r.serveWG.Done()
	r.track(conn, true)
	defer r.track(conn, false)
	defer conn.Close()

	wire := make([]byte, cell.Size)
	if err := cell.ReadWire(conn, wire); err != nil {
		return
	}
	g := r.newGoLink(conn, cell.NewBatchWriterObs(conn, r.m.flush))
	defer g.prevW.Close()
	if !g.create(wire) {
		g.teardown()
		return
	}
	r.readCircuit(g, wire)
}

// pace stalls the circuit's link reader while anything its forward cells
// feed is above the high-water mark: the next hop's spill queue, the
// queue behind a helper, a joined circuit's client-side spill queue. This
// is the per-circuit flow control of the pipelined datapath: the worker
// never blocks on a slow egress (it spills), and the reader — one link is
// one circuit — stops pulling new cells instead, pushing backpressure to
// the sender exactly as the old blocking per-circuit loop did. Without
// it a bulk sender could pump an arbitrarily long transfer into a
// bounded queue and have the circuit killed for overflowing it.
func (g *goLink) pace() {
	g.fwdSpill.waitBelow(spillHighWater)
	g.mu.Lock()
	for h := g.helper; h != nil && h.q.Len()/cell.Size >= spillHighWater && !g.destroyed.Load(); h = g.helper {
		if h.pending != nil {
			// Nobody reads this link while it is stalled, so nobody would
			// see the client leave: a next hop that has a sender this far
			// ahead of its CREATED gets a deadline.
			h.pending.SetReadDeadline(time.Now().Add(time.Duration(float64(stalledCreateTimeout) * g.relay.host.Clock().Scale())))
		}
		h.space.Wait()
	}
	joined := g.joined
	g.mu.Unlock()
	if joined != nil {
		if jg, ok := joined.t.(*goLink); ok {
			jg.bwSpill.waitBelow(spillHighWater)
		}
	}
}

// readCircuit is the link reader of an established circuit. Its only
// job is moving runs of whole cells from the wire onto the queue of the
// circuit's affinity worker; all crypto and dispatch happen on the worker
// (see forwarder). wire is the reader's one-cell buffer — all it holds
// while it waits for the link; a burst is taken when a cell has arrived
// and is the worker's from the enqueue on.
func (r *Relay) readCircuit(g *goLink, wire []byte) {
	worker := r.fwd.workerFor(g.circID)
	// Teardown runs on the worker, strictly after the last enqueued cell:
	// the sentinel is this reader's final word on the circuit.
	defer r.fwd.enqueue(worker, fwdTask{g: g})

	for {
		run, err := cell.ReadRun(g.conn, wire)
		if err != nil {
			return
		}
		end := relayCells(run, true)
		if run.N > 0 {
			// Run ownership passes to the worker; pace first so a congested
			// egress stalls this link instead of overflowing a queue.
			g.pace()
			r.fwd.enqueue(worker, fwdTask{g: g, run: run})
		} else {
			cell.PutBurst(run)
		}
		if end != cell.CmdRelay {
			if end != cell.CmdDestroy {
				r.logf("unexpected cell %v mid-circuit", end)
			}
			return
		}
	}
}

// backwardPump forwards cells arriving from the next hop toward the
// client, adding this hop's backward encryption layer, a run at a time.
// Like the forward reader it waits on a one-cell buffer and holds a
// burst only between a cell's arrival and the run's hand-off.
func (g *goLink) backwardPump(next net.Conn) {
	wire := make([]byte, cell.Size)
	for {
		run, err := cell.ReadRun(next, wire)
		if err != nil {
			g.destroyFromBehind()
			return
		}
		end := relayCells(run, false)
		// A dedicated per-circuit goroutine: blocking on the client link
		// is safe and is the backward path's backpressure.
		err = g.backwardRun(run.Frames(), true)
		cell.PutBurst(run)
		if err != nil {
			return
		}
		if end == cell.CmdDestroy {
			g.destroyFromBehind()
			return
		}
	}
}

// bwBatchCells sizes the backward batch: one exit read turns into up to
// this many DATA cells sealed and encrypted in a single crypto pass.
const bwBatchCells = 16

// sendBackwardBatch originates a run of backward DATA cells from one
// contiguous buffer: pack up to bwBatchCells frames into the reused
// batch scratch, fold the rolling digest over the run, generate one
// keystream for all of it (byte-identical to per-cell sends), and hand
// the whole run to the client-side writer. Runs from dedicated exit
// goroutines, so a full link blocks (stream backpressure) rather than
// spilling unboundedly.
func (g *goLink) sendBackwardBatch(streamID uint16, data []byte) error {
	for len(data) > 0 {
		g.bwMu.Lock()
		if g.bwBatch == nil {
			g.bwBatch = make([]byte, bwBatchCells*cell.Size)
			g.bwViews = make([][]byte, 0, bwBatchCells)
		}
		views := g.bwViews[:0]
		n := 0
		for len(data) > 0 && n < bwBatchCells {
			chunk := data[:min(len(data), cell.MaxRelayData)]
			frame := g.bwBatch[n*cell.Size : (n+1)*cell.Size]
			payload := cell.WirePayload(frame)
			if err := cell.PackRelay(payload, cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayData}, chunk); err != nil {
				g.bwMu.Unlock()
				return err
			}
			cell.SetWireCircID(frame, g.circID)
			cell.SetWireCmd(frame, cell.CmdRelay)
			views = append(views, payload)
			data = data[len(chunk):]
			n++
		}
		g.bwViews = views
		g.relay.m.originated.Add(int64(n))
		g.layer.SealBackwardBatch(views, cell.DigestOffset)
		g.layer.ApplyBackwardBatch(views, &g.bwScratch)
		err := g.writeClient(g.bwBatch[:n*cell.Size], true)
		g.bwMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// exitReader pumps data from the external destination back down the
// circuit as DATA cells. It reads a whole batch worth of bytes at a
// time, so a fast destination turns into batched seal/encrypt passes
// instead of one crypto call per cell.
func (g *goLink) exitReader(streamID uint16, remote net.Conn) {
	buf := make([]byte, bwBatchCells*cell.MaxRelayData)
	for {
		n, err := remote.Read(buf)
		if n > 0 {
			if werr := g.sendBackwardBatch(streamID, buf[:n]); werr != nil {
				remote.Close()
				return
			}
		}
		if err != nil {
			g.streamEOF(streamID)
			return
		}
	}
}

// --- worker pool -------------------------------------------------------------

// fwdTask is one unit of forward-path work: a run of inbound RELAY
// cells for a circuit, in a pooled burst the worker now owns, or — with
// a nil run — the teardown sentinel the link reader enqueues after the
// final cell, so teardown happens on the worker strictly after every
// cell that preceded it.
type fwdTask struct {
	g   *goLink
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
		// A worker idles holding its last batch: stale slots would keep
		// finished circuits, their crypto and their link buffers reachable
		// until reused.
		clear(batch)
	}
}

// process decrypts and finishes one drained batch. Consecutive runs of
// the same circuit become one batched ApplyForward pass (one keystream
// generation for all their cells — byte-identical to per-cell calls);
// every run is then finished strictly in batch order, so per-circuit
// ordering survives batching. A run the circuit does not admit (a helper
// owns the circuit) has been queued behind the helper and is emptied
// here. process consumes the runs (back to the pool) and returns the
// payload scratch slice so its capacity is reused across batches.
func (f *forwarder) process(batch []fwdTask, payloads [][]byte, scratch *otr.CryptScratch) [][]byte {
	for i := 0; i < len(batch); {
		g := batch[i].g
		if batch[i].run == nil {
			// Teardown sentinel: run it off-worker — teardown flushes and
			// closes writers, which may block on a congested link, and no
			// later task for this circuit exists (the sentinel is the link
			// reader's last word).
			go g.teardown()
			i++
			continue
		}
		j := i + 1
		for j < len(batch) && batch[j].g == g && batch[j].run != nil {
			j++
		}
		same := batch[i:j]
		i = j
		payloads = payloads[:0]
		for _, rt := range same {
			if !g.admit(rt.run.Frames(), false) {
				rt.run.N = 0
			}
			for k := 0; k < rt.run.N; k++ {
				payloads = append(payloads, cell.WirePayload(rt.run.Frame(k)))
			}
		}
		if len(payloads) > 0 {
			g.layer.ApplyForwardBatch(payloads, scratch)
		}
		handedOff := false
		for _, rt := range same {
			// Once a run of this pass has started a helper, the rest — peeled
			// already — queues behind it too, unless it is done by now.
			if frames := rt.run.Frames(); !handedOff || g.admit(frames, true) {
				handedOff = g.finishRun(frames, len(frames), false) || handedOff
			}
			cell.PutBurst(rt.run)
		}
	}
	return payloads
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
// (the forward direction's one owner, bwMu for the backward direction),
// so enqueue order — which is crypto order — always equals wire order.
// The bounds count cells, whatever size the runs are.
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
// goroutines: exit readers, backward pumps, helpers) a full link or
// queue waits instead — stream-level backpressure for callers that may
// safely stall.
func (s *spillQueue) sendFrames(frames []byte, mayBlock bool) error {
	n := len(frames) / cell.Size
	s.mu.Lock()
	for mayBlock && s.active && s.q.Len()/cell.Size >= maxSpillCells && !s.failed {
		s.space.Wait()
	}
	switch {
	case s.failed:
		s.mu.Unlock()
		return errSpillOverflow
	case !s.active && mayBlock:
		// Queue empty and no drain: a direct blocking write preserves
		// order because concurrent senders are excluded by the caller's
		// serialization.
		s.mu.Unlock()
		return s.w.WriteFrames(frames)
	case !s.active:
		if ok, err := s.w.TryWriteFrames(frames); err != nil || ok {
			s.mu.Unlock()
			return err
		}
	case !mayBlock && s.q.Len()/cell.Size+n > maxSpillCells:
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

// RunParallelForwardBench measures the sharded worker datapath in
// isolation: `circuits` middle-hop circuits, each fed cellsPerCircuit
// random (unrecognized) relay cells in full runs (what a link reader
// hands over when its link is saturated), processed by `workers` workers
// — decrypt, recognition check, circuit-ID rewrite, hand-off to a
// discarding egress writer. It returns aggregate forwarded cells/s at
// the caller's runtime.GOMAXPROCS.
func RunParallelForwardBench(workers, circuits, cellsPerCircuit int) float64 {
	r := &Relay{
		cfg:     Config{Quiet: true},
		m:       newRelayMetrics(nil),
		closing: make(chan struct{}),
	}
	r.initTables()
	r.fwd = newForwarder(r, workers)

	rng := mrand.New(mrand.NewSource(42))
	links := make([]*goLink, circuits)
	for i := range links {
		keys := make([]byte, otr.KeyMaterialLen)
		rng.Read(keys)
		layer, err := otr.NewLayer(keys)
		if err != nil {
			panic(err)
		}
		w := cell.NewBatchWriter(nopWriteCloser{})
		g := r.newGoLink(nil, w)
		g.establish(rng.Uint32(), layer)
		g.nextW, g.extended, g.nextCircID = w, true, rng.Uint32()
		g.fwdSpill.init(w, nil)
		links[i] = g
	}

	var wg sync.WaitGroup
	start := time.Now()
	for ci, g := range links {
		wg.Add(1)
		go func(ci int, g *goLink) {
			defer wg.Done()
			worker := r.fwd.workerFor(g.circID)
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
				r.fwd.enqueue(worker, fwdTask{g: g, run: run})
			}
		}(ci, g)
	}
	wg.Wait()
	r.fwd.stop()
	elapsed := time.Since(start)
	for _, g := range links {
		g.prevW.Close()
	}
	return float64(circuits*cellsPerCircuit) / elapsed.Seconds()
}
