package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/simnet"
)

// ScaleConfig sizes the six-figure-host emulation benchmark. The run
// builds a Network on the discrete-event clock, registers Clients
// lightweight client hosts alongside a fleet of real relays, which on
// this clock serve their links event-natively (relay/ingress.go), and
// churns every client through a genuine telescoped 3-hop circuit build —
// CREATE plus two EXTENDs with the real onion handshake at every hop —
// followed by a cover-traffic pump of DROP cells that traverse all
// three hops through the relays' forward datapath. A fraction of
// clients additionally performs a hidden-service-side control op
// (ESTABLISH_RENDEZVOUS at the exit hop) so the relays' HS tables see
// load too.
//
// Clients are data, not goroutines: a bounded pool of driver
// goroutines walks them through their state sequence. Relays own zero
// per-link goroutines on this path — every relay-side cell is a
// dispatcher callback — so the event core's settle telemetry
// (simnet.sched_*) isolates the scheduler's own cost.
type ScaleConfig struct {
	Clients        int     // simulated client hosts (default 100_000)
	Relays         int     // real relay fleet size (3-hop paths stripe across it)
	Drivers        int     // concurrent drivers = max live circuits
	CellsPerClient int     // DROP cells pumped per built circuit
	HSFrac         float64 // fraction of clients doing an HS control op
	Seed           int64
	Quiet          bool
}

// DefaultScaleConfig is the acceptance-scale run: 100k clients.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Clients:        100_000,
		Relays:         6,
		Drivers:        192,
		CellsPerClient: 16,
		HSFrac:         0.05,
		Seed:           5,
	}
}

// ScaleResult is the machine-readable outcome of the scale run.
type ScaleResult struct {
	Clients        int
	Relays         int
	Drivers        int
	CellsPerClient int

	CircuitsBuilt int64
	BuildFailures int64
	HSOps         int64
	CellsTotal    int64 // every cell on the wire (client links + relay forwards)

	WallSeconds    float64
	VirtualSeconds float64
	CellsPerSec    float64 // wall-clock emulator throughput

	// Dispatcher telemetry: how the event core itself spent the run.
	EventsTotal   int64   // events fired by the dispatcher
	EventsPerSec  float64 // wall-clock dispatch rate
	SettleWallPct float64 // share of wall time inside quiescence settles
	Settles       int64
	SettlesElided int64 // batches that skipped the settle entirely

	BuildP50Ms float64 // virtual circuit-build latency percentiles
	BuildP99Ms float64

	Hosts        int
	BytesPerHost float64 // steady-state heap per simulated host
	PeakHeapMB   float64
}

// WriteJSONFile records the result machine-readably so the scale
// trajectory across PRs can be tracked.
func (r *ScaleResult) WriteJSONFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	return os.WriteFile(path, blob, 0o644)
}

// String renders the run summary.
func (r *ScaleResult) String() string {
	var b strings.Builder
	b.WriteString("Scale: event-core emulation capacity\n")
	fmt.Fprintf(&b, "Hosts:                  %d (%d clients, %d relays)\n", r.Hosts, r.Clients, r.Relays)
	fmt.Fprintf(&b, "Circuits built:         %d 3-hop (%d failures)\n", r.CircuitsBuilt, r.BuildFailures)
	fmt.Fprintf(&b, "HS control ops:         %d\n", r.HSOps)
	fmt.Fprintf(&b, "Cells on the wire:      %d\n", r.CellsTotal)
	fmt.Fprintf(&b, "Emulator throughput:    %.0f cells/s (wall)\n", r.CellsPerSec)
	fmt.Fprintf(&b, "Dispatcher:             %d events, %.0f events/s (wall)\n", r.EventsTotal, r.EventsPerSec)
	fmt.Fprintf(&b, "Settle share of wall:   %.1f%% (%d settles, %d elided)\n", r.SettleWallPct, r.Settles, r.SettlesElided)
	fmt.Fprintf(&b, "Circuit build latency:  p50 %.1f ms, p99 %.1f ms (virtual)\n", r.BuildP50Ms, r.BuildP99Ms)
	fmt.Fprintf(&b, "Virtual time simulated: %.1f s in %.1f s wall\n", r.VirtualSeconds, r.WallSeconds)
	fmt.Fprintf(&b, "Memory per host:        %.0f bytes (peak heap %.1f MB)\n", r.BytesPerHost, r.PeakHeapMB)
	return b.String()
}

// scaleClient is one lightweight client's driver-side state. It owns no
// goroutine; a driver walks it through dial → build → pump → close.
// Kept to 8 bytes: at 1M clients this array is itself part of the
// measured per-host footprint.
type scaleClient struct {
	latencyMs int32 // virtual build latency, ms (0 = not built)
	built     bool
}

// clientIndex parses the i out of a "c%06d" client host name without
// allocating; it is on the per-chunk delay lookup path.
func clientIndex(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'c' {
		return 0, false
	}
	i := 0
	for k := 1; k < len(name); k++ {
		d := name[k] - '0'
		if d > 9 {
			return 0, false
		}
		i = i*10 + int(d)
	}
	return i, true
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// RunScale executes the scale benchmark on the event-driven clock.
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 100_000
	}
	if cfg.Relays < 3 {
		cfg.Relays = 6
	}
	if cfg.Drivers <= 0 {
		cfg.Drivers = 192
	}
	if cfg.Drivers > cfg.Clients {
		cfg.Drivers = cfg.Clients
	}
	if cfg.CellsPerClient < 0 {
		cfg.CellsPerClient = 0
	}

	clock := simnet.NewEventClock()
	defer clock.Stop()
	n := simnet.NewNetwork(clock, 10*time.Millisecond)
	reg := obs.NewRegistry()
	n.SetObs(reg)

	relays := make([]*relay.Relay, cfg.Relays)
	descs := make([]*dirauth.Descriptor, cfg.Relays)
	for i := range relays {
		// 12.5 MB/s uplink (~100 Mbit): backward cells queue under load,
		// which is what spreads the build-latency distribution.
		h := n.AddHost(fmt.Sprintf("relay%d", i), 12.5*(1<<20))
		r, err := relay.New(h, relay.Config{
			Nickname: fmt.Sprintf("relay%d", i),
			Flags:    []string{dirauth.FlagGuard},
			Quiet:    true,
		})
		if err != nil {
			return nil, err
		}
		defer r.Close()
		relays[i] = r
		d, err := r.Descriptor()
		if err != nil {
			return nil, err
		}
		descs[i] = d
	}

	heapBefore := heapAfterGC()
	var peakHeap atomic.Uint64
	samplerDone := make(chan struct{})
	go func() {
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-samplerDone:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peakHeap.Load() {
					peakHeap.Store(ms.HeapAlloc)
				}
			}
		}
	}()

	clients := make([]scaleClient, cfg.Clients)
	// Spread client↔relay propagation delays 5–50ms so builds don't all
	// tie. Computed from the client index instead of a per-pair SetDelay
	// entry: the delay map would cost ~50 B per host at this scale.
	n.SetDelayFunc(func(a, b string) (time.Duration, bool) {
		i, ok := clientIndex(a)
		if !ok {
			if i, ok = clientIndex(b); !ok {
				return 0, false
			}
		}
		return time.Duration(5+i%45) * time.Millisecond, true
	})
	hsEvery := 0
	if cfg.HSFrac > 0 {
		hsEvery = int(1 / cfg.HSFrac)
	}

	var built, failures, hsOps, cells atomic.Int64
	var next atomic.Int64
	start := time.Now()

	driver := func() {
		payload := make([]byte, 64) // cover-cell payload
		wire := make([]byte, cell.Size)
		for {
			i := int(next.Add(1)) - 1
			if i >= cfg.Clients {
				return
			}
			sc := &clients[i]
			// 3-hop path striped across the fleet.
			path := []*dirauth.Descriptor{
				descs[i%cfg.Relays],
				descs[(i+1)%cfg.Relays],
				descs[(i+2)%cfg.Relays],
			}
			host := n.AddHost(fmt.Sprintf("c%06d", i), 1<<20)

			t0 := clock.Now()
			conn, err := host.Dial(fmt.Sprintf("%s:%d", path[0].Nickname, relay.ORPort))
			if err != nil {
				failures.Add(1)
				continue
			}
			circID := uint32(i + 1)
			layers := make([]*otr.Layer, 0, 3)

			// sendSealed onion-encrypts a relay cell for the deepest hop
			// built so far and puts it on the wire — synchronously for the
			// build handshakes, through the event-native WriteAsync path
			// for the cover pump.
			sendSealed := func(hdr cell.RelayHeader, data []byte, async bool) error {
				c := &cell.Cell{CircID: circID, Cmd: cell.CmdRelay}
				if err := cell.PackRelay(c.Payload[:], hdr, data); err != nil {
					return err
				}
				otr.OnionEncrypt(layers, len(layers)-1, c.Payload[:], cell.DigestOffset)
				cells.Add(1)
				if async {
					c.EncodeInto(wire)
					return conn.(simnet.LightConn).WriteAsync(wire)
				}
				return cell.Write(conn, c)
			}
			// readSealed peels the backward onion and returns the relay
			// header and data recognized at any hop.
			readSealed := func() (cell.RelayHeader, []byte, error) {
				conn.SetReadDeadline(time.Now().Add(60 * time.Second))
				c, err := cell.Read(conn)
				if err != nil {
					return cell.RelayHeader{}, nil, err
				}
				if c.Cmd != cell.CmdRelay {
					return cell.RelayHeader{}, nil, fmt.Errorf("unexpected %v", c.Cmd)
				}
				cells.Add(1)
				if otr.OnionDecrypt(layers, c.Payload[:], cell.RecognizedOffset, cell.DigestOffset) < 0 {
					return cell.RelayHeader{}, nil, fmt.Errorf("unrecognized backward cell")
				}
				return cell.ParseRelay(c.Payload[:])
			}

			// Hop 1: CREATE/CREATED straight on the link.
			buildOK := func() bool {
				hs, msg, err := otr.NewClientHandshake([]byte(path[0].Fingerprint()), path[0].OnionKey)
				if err != nil {
					return false
				}
				create := &cell.Cell{CircID: circID, Cmd: cell.CmdCreate}
				copy(create.Payload[:], msg)
				if err := cell.Write(conn, create); err != nil {
					return false
				}
				conn.SetReadDeadline(time.Now().Add(60 * time.Second))
				created, err := cell.Read(conn)
				if err != nil || created.Cmd != cell.CmdCreated {
					return false
				}
				cells.Add(2) // CREATE + CREATED
				keys, err := hs.Finish(created.Payload[:otr.PublicKeyLen+otr.AuthLen])
				if err != nil {
					return false
				}
				layer, err := otr.NewLayer(keys)
				if err != nil {
					return false
				}
				layers = append(layers, layer)

				// Hops 2 and 3: telescoped EXTENDs through the light
				// forward path.
				for _, hop := range path[1:] {
					hs, msg, err := otr.NewClientHandshake([]byte(hop.Fingerprint()), hop.OnionKey)
					if err != nil {
						return false
					}
					ext, err := cell.EncodeControl(&cell.ExtendPayload{
						Addr:        hop.Address,
						Fingerprint: hop.Fingerprint(),
						Handshake:   msg,
					})
					if err != nil {
						return false
					}
					if sendSealed(cell.RelayHeader{Cmd: cell.RelayExtend}, ext, false) != nil {
						return false
					}
					hdr, data, err := readSealed()
					if err != nil || hdr.Cmd != cell.RelayExtended {
						return false
					}
					var extd cell.ExtendedPayload
					if cell.DecodeControl(data, &extd) != nil {
						return false
					}
					keys, err := hs.Finish(extd.Reply)
					if err != nil {
						return false
					}
					layer, err := otr.NewLayer(keys)
					if err != nil {
						return false
					}
					layers = append(layers, layer)
				}
				return true
			}()
			if !buildOK {
				failures.Add(1)
				conn.Close()
				continue
			}
			sc.latencyMs = int32((clock.Now() - t0) / time.Millisecond)
			sc.built = true
			built.Add(1)

			if hsEvery > 0 && i%hsEvery == 0 {
				// HS-side duty: park a rendezvous cookie on the exit relay
				// and wait for the acknowledgment through all three
				// backward layers.
				cookie := make([]byte, 16)
				binary.BigEndian.PutUint64(cookie, uint64(cfg.Seed))
				binary.BigEndian.PutUint64(cookie[8:], uint64(i))
				est, err := cell.EncodeControl(&cell.EstablishRendezvousPayload{Cookie: cookie})
				if err == nil && sendSealed(cell.RelayHeader{Cmd: cell.RelayEstablishRendezvous}, est, false) == nil {
					if hdr, _, err := readSealed(); err == nil && hdr.Cmd == cell.RelayRendezvousEstablished {
						hsOps.Add(1)
					}
				}
			}

			// Cover-traffic pump through the event-native path: WriteAsync
			// folds egress pacing into delivery timestamps, so the driver
			// never blocks here. Each DROP is sealed for the exit and
			// crosses both forwarding hops.
			for k := 0; k < cfg.CellsPerClient; k++ {
				if err := sendSealed(cell.RelayHeader{Cmd: cell.RelayDrop}, payload, true); err != nil {
					break
				}
			}
			conn.Close()
		}
	}

	var wg sync.WaitGroup
	for d := 0; d < cfg.Drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			driver()
		}()
	}
	wg.Wait()
	// Let in-flight deliveries and relay-side teardown drain.
	clock.Sleep(30 * time.Second)

	wall := time.Since(start).Seconds()
	virtual := clock.Now().Seconds()
	close(samplerDone)

	heapAfter := heapAfterGC()
	if h := peakHeap.Load(); heapAfter > h {
		peakHeap.Store(heapAfter)
	}

	res := &ScaleResult{
		Clients:        cfg.Clients,
		Relays:         cfg.Relays,
		Drivers:        cfg.Drivers,
		CellsPerClient: cfg.CellsPerClient,
		CircuitsBuilt:  built.Load(),
		BuildFailures:  failures.Load(),
		HSOps:          hsOps.Load(),
		WallSeconds:    wall,
		VirtualSeconds: virtual,
		Hosts:          cfg.Clients + cfg.Relays,
	}
	// Relay-side forwards are additional wire cells beyond what the
	// clients saw directly (the fleet shares one registry, so the
	// counter is already fleet-wide).
	res.CellsTotal = cells.Load() + reg.Counter("relay.cells_forwarded").Value() +
		reg.Counter("relay.cells_relayed_back").Value()
	if wall > 0 {
		res.CellsPerSec = float64(res.CellsTotal) / wall
	}

	// Dispatcher telemetry from the scheduler's own instrumentation.
	res.EventsTotal = reg.Histogram("simnet.sched_batch_events", nil).Sum()
	res.Settles = reg.Counter("simnet.sched_settles").Value()
	res.SettlesElided = reg.Counter("simnet.sched_settles_elided").Value()
	settleNs := reg.Histogram("simnet.sched_settle_ns", nil).Sum()
	if wall > 0 {
		res.EventsPerSec = float64(res.EventsTotal) / wall
		res.SettleWallPct = 100 * float64(settleNs) / (wall * 1e9)
	}

	var grew float64
	if heapAfter > heapBefore {
		grew = float64(heapAfter - heapBefore)
	}
	res.BytesPerHost = grew / float64(cfg.Clients)
	res.PeakHeapMB = float64(peakHeap.Load()) / (1 << 20)

	lats := make([]float64, 0, cfg.Clients)
	for i := range clients {
		if clients[i].built {
			lats = append(lats, float64(clients[i].latencyMs))
		}
	}
	sort.Float64s(lats)
	if len(lats) > 0 {
		res.BuildP50Ms = lats[len(lats)/2]
		res.BuildP99Ms = lats[(len(lats)*99)/100]
	}
	if res.CircuitsBuilt == 0 {
		return res, fmt.Errorf("scale: no circuit ever built (%d failures)", res.BuildFailures)
	}
	return res, nil
}
