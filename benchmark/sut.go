package main

// sut.go is the benchmark's one contact surface with the program: every
// call into internal/... lives in this file, so an API change breaks one
// file (and smoke_test.go says so in tier-1). It uses only public
// functions that ROADMAP.md does not slate for removal; README.md lists
// them. The rest of the benchmark sees plain Go values.

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/enclave"
	"github.com/bento-nfv/bento/internal/functions"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/sandbox"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/testbed"
	"github.com/bento-nfv/bento/internal/torclient"
	"github.com/bento-nfv/bento/internal/webfarm"
	"github.com/bento-nfv/bento/internal/wire"
)

// errWrongOutput marks an op that completed but returned bytes other
// than the ones the generator expected.
var errWrongOutput = errors.New("wrong output")

// corruptExpected (-corrupt) makes every generator hand out a wrong
// expectation — a flipped page byte, an off-by-one sum, another round's
// checksum, one circuit too many — so that a run shows the checks are
// live: every workload must then fail and the command exit non-zero.
var corruptExpected bool

// ctrlTimeout is the virtual control-cell timeout the benchmark's Tor
// clients use. The testbed's default clock runs 2000x faster than the
// host's, so the stock 10 virtual minutes are 300 ms of host time — a
// neighbour stealing the core that long would read as a failed op.
const ctrlTimeout = 24 * time.Hour

// ---------------------------------------------------------------------
// Registry counters

// counters flattens an obs registry snapshot: counters by name, and for
// each histogram name.count and name.sum. A nil registry gives nil.
func counters(reg *obs.Registry) map[string]int64 {
	snap := reg.Snapshot()
	if snap == nil {
		return nil
	}
	out := make(map[string]int64, len(snap.Counters)+2*len(snap.Histograms))
	for k, v := range snap.Counters {
		out[k] = v
	}
	for k, h := range snap.Histograms {
		out[k+".count"] = h.Count
		out[k+".sum"] = h.Sum
	}
	return out
}

// ---------------------------------------------------------------------
// The goroutine-relay world of browser_fetch, function_invoke and the
// bulk workloads: CPU-bound (1µs links, no egress caps), default clock.

type world struct {
	tb  *testbed.World
	reg *obs.Registry // nil in the untraced pass
}

func newWorld(relays, bentoNodes int, sites []*webfarm.Site, traced bool) (*world, error) {
	cfg := testbed.Config{
		Relays:     relays,
		BentoNodes: bentoNodes,
		Sites:      sites,
		LinkDelay:  time.Microsecond,
	}
	w := &world{}
	if traced {
		w.reg = obs.NewRegistry()
		cfg.Obs = w.reg
	}
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, err
	}
	w.tb = tb
	return w, nil
}

func (w *world) counters() map[string]int64 { return counters(w.reg) }
func (w *world) close()                     { w.tb.Close() }

func (w *world) bentoClient(name string, seed int64) *bento.Client {
	cli := w.tb.NewBentoClient(name, seed)
	cli.Tor.SetCtrlTimeout(ctrlTimeout)
	return cli
}

// ---------------------------------------------------------------------
// browser_fetch

const fetchDomain = "small.web"

// fetchSite is the page the Browser function fetches: about 16 KB of
// HTML and two 8 KB resources, incompressible. The sizes move by a few
// bytes with the seed, and with them every byte of the page, since the
// page filler is keyed by path and size.
func fetchSite(seed int64) *webfarm.Site {
	rng := rand.New(rand.NewSource(seed))
	return webfarm.NamedSite(fetchDomain,
		16<<10+rng.Intn(128),
		[]int{8<<10 + rng.Intn(64), 8<<10 + rng.Intn(64)})
}

// sitePage is what a browser gets from the site: HTML then resources.
func sitePage(s *webfarm.Site) []byte {
	page := append([]byte(nil), s.Body("/")...)
	for _, r := range s.Resources {
		page = append(page, s.Body(r.Path)...)
	}
	return page
}

type fetchSUT struct {
	*world
	cli  *bento.Client
	node *dirauth.Descriptor
	man  *policy.Manifest
	want []byte
}

func newFetchSUT(seed int64, traced bool) (*fetchSUT, error) {
	site := fetchSite(seed)
	w, err := newWorld(6, 1, []*webfarm.Site{site}, traced)
	if err != nil {
		return nil, err
	}
	man := functions.DefaultManifest("browser", "python")
	man.Calls = []string{"net.dial", "tor.send"}
	want := sitePage(site)
	if corruptExpected {
		want[len(want)/2] ^= 1
	}
	return &fetchSUT{
		world: w,
		cli:   w.bentoClient("fetcher", seed),
		node:  w.tb.BentoNode(0),
		man:   man,
		want:  want,
	}, nil
}

// op is one whole-path fetch: circuit to the Bento node, container,
// Browser upload, invoke, teardown. The page is checked byte for byte.
func (s *fetchSUT) op(tr *recorder) error {
	sp := tr.begin("bento.connect")
	conn, err := s.cli.Connect(s.node)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer conn.Close()

	sp = tr.begin("bento.spawn")
	fn, err := conn.Spawn(s.man)
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("bento.upload")
	err = fn.Upload(functions.BrowserSource)
	tr.end(sp)
	if err != nil {
		fn.Shutdown()
		return err
	}

	sp = tr.begin("bento.invoke")
	out, _, err := fn.Invoke("browser", interp.Str(fetchDomain), interp.Int(0))
	tr.end(sp)
	if err != nil {
		fn.Shutdown()
		return err
	}

	sp = tr.begin("bento.shutdown")
	err = fn.Shutdown()
	tr.end(sp)
	if err != nil {
		return err
	}

	page, err := functions.UnpadBrowser(out)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrongOutput, err)
	}
	if !bytes.Equal(page, s.want) {
		return fmt.Errorf("%w: page differs from the site's %d bytes", errWrongOutput, len(s.want))
	}
	return nil
}

// ---------------------------------------------------------------------
// function_invoke

// invokeSource holds the two functions the invoke workload alternates:
// compute keeps the VM in unboxed integer registers, build drives the
// memory-accounted string accumulator and returns 32 KB. noop prices
// the invoke path with no VM work at all.
const invokeSource = `
def compute(n):
    total = 0
    i = 0
    while i < n:
        total = total + i * 3 % 7 - (i % 2)
        if total > 1000000:
            total = 0
        i += 1
    return total

def build(n):
    s = ""
    i = 0
    while i < n:
        s = s + "01234567"
        i += 1
    return s

def noop():
    return 0
`

const (
	// invokeN is the nominal loop bound of compute and build.
	invokeN    = 4000
	buildChunk = "01234567"
	// respawnEvery keeps a container under the manifest's 50M
	// instruction budget, which is charged across its invocations.
	respawnEvery = 64
)

// expectationSkew is 0, or 1 under -corrupt.
func expectationSkew() int64 {
	if corruptExpected {
		return 1
	}
	return 0
}

// computeRef is the Go reference for bscript compute(n).
func computeRef(n int64) int64 {
	var total int64
	for i := int64(0); i < n; i++ {
		total = total + i*3%7 - i%2
		if total > 1_000_000 {
			total = 0
		}
	}
	return total
}

type invokeSUT struct {
	*world
	conn     *bento.Conn
	fn       *bento.Function
	man      *policy.Manifest
	n        int64
	wantSum  int64
	wantText string
	invoked  int
}

// newInvokeSUT connects once; ops reuse the connection. The loop bound
// moves slightly with the seed so the expected values do too.
func newInvokeSUT(seed int64, traced bool) (*invokeSUT, error) {
	w, err := newWorld(6, 1, nil, traced)
	if err != nil {
		return nil, err
	}
	n := invokeN + rand.New(rand.NewSource(seed)).Int63n(16)
	s := &invokeSUT{
		world:    w,
		man:      functions.DefaultManifest("invoke", "python"),
		n:        n,
		wantSum:  computeRef(n) + expectationSkew(),
		wantText: string(bytes.Repeat([]byte(buildChunk), int(n))),
	}
	s.conn, err = w.bentoClient("invoker", seed).Connect(w.tb.BentoNode(0))
	if err != nil {
		w.close()
		return nil, err
	}
	return s, nil
}

func (s *invokeSUT) respawn(tr *recorder) error {
	if s.fn != nil {
		sp := tr.begin("bento.shutdown")
		err := s.fn.Shutdown()
		tr.end(sp)
		s.fn = nil
		if err != nil {
			return err
		}
	}
	sp := tr.begin("bento.spawn")
	fn, err := s.conn.Spawn(s.man)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("bento.upload")
	err = fn.Upload(invokeSource)
	tr.end(sp)
	if err != nil {
		fn.Shutdown()
		return err
	}
	s.fn, s.invoked = fn, 0
	return nil
}

// op is one compute(n) then one build(n) on the persistent connection,
// each checked against its Go reference. Taking the pair as the op keeps
// the latency distribution unimodal; the spans time each half.
func (s *invokeSUT) op(tr *recorder) error {
	if s.fn == nil || s.invoked >= respawnEvery {
		if err := s.respawn(tr); err != nil {
			return err
		}
	}
	s.invoked += 2

	sp := tr.begin("bento.invoke_compute")
	_, ret, err := s.fn.Invoke("compute", interp.Int(s.n))
	tr.end(sp)
	if err != nil {
		return err
	}
	if got, ok := ret.(interp.Int); !ok || int64(got) != s.wantSum {
		return fmt.Errorf("%w: compute(%d) = %v, want %d", errWrongOutput, s.n, ret, s.wantSum)
	}

	sp = tr.begin("bento.invoke_build")
	_, ret, err = s.fn.Invoke("build", interp.Int(s.n))
	tr.end(sp)
	if err != nil {
		return err
	}
	if got, ok := ret.(interp.Str); !ok || string(got) != s.wantText {
		return fmt.Errorf("%w: build(%d) returned %d bytes, want %d of %q",
			errWrongOutput, s.n, len(interp.Repr(ret)), len(s.wantText), buildChunk)
	}
	return nil
}

// noop is one invoke that does no VM work: the protocol's floor.
func (s *invokeSUT) noop() error {
	if s.fn == nil {
		if err := s.respawn(nil); err != nil {
			return err
		}
	}
	_, _, err := s.fn.Invoke("noop")
	return err
}

func (s *invokeSUT) close() {
	s.conn.Close()
	s.world.close()
}

// ---------------------------------------------------------------------
// bulk_upload / bulk_download

const (
	sinkPort = 9950
	// roundCells is the payload of one bulk op in full relay cells.
	roundCells = 4096
	roundBytes = roundCells * cell.MaxRelayData
	// patternWindows is how many distinct round payloads a run cycles
	// through; each is a window into one seeded pattern buffer.
	patternWindows = 16

	sinkOpUpload   = 'U'
	sinkOpDownload = 'D'
)

// pattern is the seeded payload generator shared by the client and the
// sink: round r carries window r mod patternWindows. Sums are computed
// once, at set-up, so the timed loop only compares.
type pattern struct {
	buf  []byte
	offs [patternWindows]int
	sums [patternWindows]uint32
}

func newPattern(seed int64) *pattern {
	rng := rand.New(rand.NewSource(seed))
	p := &pattern{buf: make([]byte, 2*roundBytes)}
	rng.Read(p.buf)
	for i := range p.offs {
		p.offs[i] = rng.Intn(roundBytes)
	}
	for i := range p.sums {
		p.sums[i] = crc32.ChecksumIEEE(p.expect(i))
	}
	return p
}

// expect is the payload the client checks round i against: the window
// the sink serves, or under -corrupt the next round's.
func (p *pattern) expect(i int) []byte {
	return p.window(i + int(expectationSkew()))
}

func (p *pattern) window(i int) []byte {
	off := p.offs[i%patternWindows]
	return p.buf[off : off+roundBytes]
}

// serveSink speaks the meter protocol on one stream: 'U'+window drains
// a round and acks its CRC-32; 'D'+window writes that round's bytes.
func serveSink(conn net.Conn, p *pattern) {
	defer conn.Close()
	buf := make([]byte, 64<<10)
	var hdr [2]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		switch hdr[0] {
		case sinkOpUpload:
			var sum uint32
			for left := roundBytes; left > 0; {
				n, err := conn.Read(buf[:min(len(buf), left)])
				sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
				left -= n
				if err != nil {
					return
				}
			}
			var ack [4]byte
			binary.BigEndian.PutUint32(ack[:], sum)
			if _, err := conn.Write(ack[:]); err != nil {
				return
			}
		case sinkOpDownload:
			if _, err := conn.Write(p.window(int(hdr[1]))); err != nil {
				return
			}
		default:
			return
		}
	}
}

type bulkSUT struct {
	*world
	pat    *pattern
	ln     net.Listener
	circ   *torclient.Circuit
	stream net.Conn
	buf    []byte
	round  int
}

// newBulkSUT builds one 3-hop circuit and one stream to the sink host,
// both kept for the whole run.
func newBulkSUT(seed int64, traced bool) (*bulkSUT, error) {
	w, err := newWorld(3, 0, nil, traced)
	if err != nil {
		return nil, err
	}
	s := &bulkSUT{world: w, pat: newPattern(seed), buf: make([]byte, 64<<10)}
	fail := func(err error) (*bulkSUT, error) {
		s.close()
		return nil, err
	}
	s.ln, err = w.tb.Net.AddHost("sink", 0).Listen(sinkPort)
	if err != nil {
		return fail(err)
	}
	go func() {
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			go serveSink(conn, s.pat)
		}
	}()

	cli := w.tb.NewTorClient("meter", seed)
	cli.SetCtrlTimeout(ctrlTimeout)
	path := append([]*dirauth.Descriptor(nil), w.tb.Consensus.Relays...)
	rand.New(rand.NewSource(seed)).Shuffle(len(path), func(i, j int) { path[i], path[j] = path[j], path[i] })
	s.circ, err = cli.BuildCircuit(path[:3])
	if err != nil {
		return fail(err)
	}
	s.stream, err = s.circ.OpenStream(fmt.Sprintf("sink:%d", sinkPort))
	if err != nil {
		return fail(err)
	}
	return s, nil
}

// upload is one forward round: the client seals three layers per cell,
// each relay peels one. The clock runs from the first byte written to
// the sink's checksum ack.
func (s *bulkSUT) upload(tr *recorder) error {
	win := s.round % patternWindows
	s.round++
	sp := tr.begin("bulk.upload_round")
	defer tr.end(sp)
	if _, err := s.stream.Write([]byte{sinkOpUpload, byte(win)}); err != nil {
		return err
	}
	if _, err := s.stream.Write(s.pat.window(win)); err != nil {
		return err
	}
	var ack [4]byte
	if _, err := io.ReadFull(s.stream, ack[:]); err != nil {
		return err
	}
	if got := binary.BigEndian.Uint32(ack[:]); got != s.pat.sums[win] {
		return fmt.Errorf("%w: sink acked crc %08x, sent %08x", errWrongOutput, got, s.pat.sums[win])
	}
	return nil
}

// download is one backward round: each relay adds a layer, the client
// peels three. Every byte is compared with the generator's.
func (s *bulkSUT) download(tr *recorder) error {
	win := s.round % patternWindows
	s.round++
	sp := tr.begin("bulk.download_round")
	defer tr.end(sp)
	if _, err := s.stream.Write([]byte{sinkOpDownload, byte(win)}); err != nil {
		return err
	}
	want := s.pat.expect(win)
	for len(want) > 0 {
		n, err := s.stream.Read(s.buf[:min(len(s.buf), len(want))])
		if !bytes.Equal(s.buf[:n], want[:n]) {
			return fmt.Errorf("%w: download differs %d bytes before the end of the round", errWrongOutput, len(want))
		}
		want = want[n:]
		if err != nil && len(want) > 0 {
			return err
		}
	}
	return nil
}

func (s *bulkSUT) close() {
	if s.stream != nil {
		s.stream.Close()
	}
	if s.circ != nil {
		s.circ.Close()
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.world.close()
}

// ---------------------------------------------------------------------
// circuit_churn: the benchmark's own copy of the `-exp scale` driver.
// Client hosts are data walked by a fixed pool of driver goroutines;
// relays serve the event-native light ingress on the event clock.

const (
	churnRelays  = 6
	churnDrivers = 192
	churnCells   = 16 // DROP cells per built circuit
	churnHSEvery = 20 // every 20th client also parks a rendezvous cookie
)

type churnSUT struct {
	clock *simnet.Clock
	net   *simnet.Network
	reg   *obs.Registry
	seed  int64

	relays []*relay.Relay
	descs  []*dirauth.Descriptor
	next   int // first unused client index
}

// churnResult is what one population run reports back to the harness.
type churnResult struct {
	built     int
	failed    int
	hsOps     int
	ends      []int64   // completion offsets, ns since the population started
	latNs     []float64 // host latency of each completed client
	virtBuild []float64 // virtual build latency of each, ms
	recs      []*recorder
	firstErr  error
}

// churnClientIndex parses i out of a "c%07d" host name without
// allocating; it is on the per-chunk delay lookup path.
func churnClientIndex(name string) (int, bool) {
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

func newChurnSUT(seed int64, traced bool) (*churnSUT, error) {
	s := &churnSUT{clock: simnet.NewEventClock(), seed: seed}
	s.net = simnet.NewNetwork(s.clock, 10*time.Millisecond)
	if traced {
		s.reg = obs.NewRegistry()
		s.net.SetObs(s.reg)
	}
	for i := 0; i < churnRelays; i++ {
		name := fmt.Sprintf("relay%d", i)
		// 12.5 MB/s uplink: backward cells queue under load, which is
		// what spreads the virtual build-latency distribution.
		h := s.net.AddHost(name, 12.5*(1<<20))
		cfg := relay.Config{Nickname: name, Flags: []string{dirauth.FlagGuard}, Quiet: true}
		// Set by name: ROADMAP.md plans to derive the ingress from the
		// conn type, and the benchmark must still build once the field
		// is gone.
		if f := reflect.ValueOf(&cfg).Elem().FieldByName("LightIngress"); f.IsValid() && f.Kind() == reflect.Bool {
			f.SetBool(true)
		}
		r, err := relay.New(h, cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.relays = append(s.relays, r)
		d, err := r.Descriptor()
		if err != nil {
			s.close()
			return nil, err
		}
		s.descs = append(s.descs, d)
	}
	// Client-relay delays spread 5-50 ms by client index, so builds do
	// not all tie; a function, because a per-pair map would itself be a
	// large part of the per-host footprint measured here.
	s.net.SetDelayFunc(func(a, b string) (time.Duration, bool) {
		i, ok := churnClientIndex(a)
		if !ok {
			if i, ok = churnClientIndex(b); !ok {
				return 0, false
			}
		}
		return time.Duration(5+i%45) * time.Millisecond, true
	})
	return s, nil
}

func (s *churnSUT) counters() map[string]int64 { return counters(s.reg) }

// run walks `clients` fresh client hosts through dial, telescoped 3-hop
// build, the cover pump, the occasional rendezvous op and close. traced
// gives each driver a span recorder.
func (s *churnSUT) run(clients int, traced bool) *churnResult {
	first := s.next
	s.next += clients
	drivers := min(churnDrivers, clients)

	type done struct {
		end  int64
		lat  float64
		virt float64
	}
	var (
		next          atomic.Int64
		failed, hsOps atomic.Int64
		mu            sync.Mutex
		all           []done
		firstErr      error
		recs          = make([]*recorder, drivers)
		wg            sync.WaitGroup
	)
	start := time.Now()
	for d := 0; d < drivers; d++ {
		var tr *recorder
		if traced {
			tr = newRecorder(start)
			recs[d] = tr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []done
			payload := make([]byte, 64)
			wire := make([]byte, cell.Size)
			for {
				k := int(next.Add(1)) - 1
				if k >= clients {
					break
				}
				i := first + k
				t0 := time.Now()
				tr.startOp(int64(i))
				sp := tr.begin("churn.client")
				virt, hs, err := s.client(i, payload, wire, tr)
				tr.end(sp)
				if err != nil {
					if failed.Add(1) == 1 {
						mu.Lock()
						firstErr = err
						mu.Unlock()
					}
					continue
				}
				if hs {
					hsOps.Add(1)
				}
				now := time.Now()
				local = append(local, done{
					end:  int64(now.Sub(start)),
					lat:  float64(now.Sub(t0)),
					virt: float64(virt) / float64(time.Millisecond),
				})
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Let in-flight deliveries and relay-side teardown drain; virtual
	// time, so nearly free on the host.
	s.clock.Sleep(30 * time.Second)

	res := &churnResult{
		built:    len(all),
		failed:   int(failed.Load()),
		hsOps:    int(hsOps.Load()),
		recs:     recs,
		firstErr: firstErr,
	}
	for _, d := range all {
		res.ends = append(res.ends, d.end)
		res.latNs = append(res.latNs, d.lat)
		res.virtBuild = append(res.virtBuild, d.virt)
	}
	return res
}

// client is one simulated client's whole life. It returns the virtual
// build latency and whether it did the rendezvous op.
func (s *churnSUT) client(i int, payload, wire []byte, tr *recorder) (virt time.Duration, hs bool, err error) {
	// 3-hop path striped across the fleet, rotated by the seed.
	at := i + int(s.seed%churnRelays+churnRelays)
	path := [3]*dirauth.Descriptor{
		s.descs[at%churnRelays], s.descs[(at+1)%churnRelays], s.descs[(at+2)%churnRelays],
	}
	host := s.net.AddHost(fmt.Sprintf("c%07d", i), 1<<20)
	t0 := s.clock.Now()
	conn, err := host.Dial(fmt.Sprintf("%s:%d", path[0].Nickname, relay.ORPort))
	if err != nil {
		return 0, false, err
	}
	defer conn.Close()
	circID := uint32(i + 1)
	layers := make([]*otr.Layer, 0, 3)

	// sendSealed onion-encrypts a relay cell for the deepest hop built
	// so far: a blocking write for the handshakes, the event-native
	// WriteAsync for the cover pump.
	sendSealed := func(hdr cell.RelayHeader, data []byte, async bool) error {
		c := &cell.Cell{CircID: circID, Cmd: cell.CmdRelay}
		if err := cell.PackRelay(c.Payload[:], hdr, data); err != nil {
			return err
		}
		otr.OnionEncrypt(layers, len(layers)-1, c.Payload[:], cell.DigestOffset)
		if async {
			c.EncodeInto(wire)
			return conn.(simnet.LightConn).WriteAsync(wire)
		}
		return cell.Write(conn, c)
	}
	readSealed := func() (cell.RelayHeader, []byte, error) {
		conn.SetReadDeadline(time.Now().Add(60 * time.Second))
		c, err := cell.Read(conn)
		if err != nil {
			return cell.RelayHeader{}, nil, err
		}
		if c.Cmd != cell.CmdRelay {
			return cell.RelayHeader{}, nil, fmt.Errorf("unexpected %v", c.Cmd)
		}
		if otr.OnionDecrypt(layers, c.Payload[:], cell.RecognizedOffset, cell.DigestOffset) < 0 {
			return cell.RelayHeader{}, nil, errors.New("unrecognized backward cell")
		}
		return cell.ParseRelay(c.Payload[:])
	}
	// handshake wraps the client's half of one ntor exchange in a span;
	// the wait for the reply in between is not part of it.
	begin := func(hop *dirauth.Descriptor) (*otr.ClientHandshake, []byte, error) {
		sp := tr.begin("otr.client_handshake")
		defer tr.end(sp)
		return otr.NewClientHandshake([]byte(hop.Fingerprint()), hop.OnionKey)
	}
	finish := func(h *otr.ClientHandshake, reply []byte) error {
		sp := tr.begin("otr.client_handshake")
		defer tr.end(sp)
		keys, err := h.Finish(reply)
		if err != nil {
			return err
		}
		layer, err := otr.NewLayer(keys)
		if err != nil {
			return err
		}
		layers = append(layers, layer)
		return nil
	}

	// Hop 1: CREATE/CREATED straight on the link.
	h, msg, err := begin(path[0])
	if err != nil {
		return 0, false, err
	}
	create := &cell.Cell{CircID: circID, Cmd: cell.CmdCreate}
	copy(create.Payload[:], msg)
	if err := cell.Write(conn, create); err != nil {
		return 0, false, err
	}
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	created, err := cell.Read(conn)
	if err != nil {
		return 0, false, err
	}
	if created.Cmd != cell.CmdCreated {
		return 0, false, fmt.Errorf("unexpected %v, want CREATED", created.Cmd)
	}
	if err := finish(h, created.Payload[:otr.PublicKeyLen+otr.AuthLen]); err != nil {
		return 0, false, err
	}
	// Hops 2 and 3: telescoped EXTENDs through the light forward path.
	for _, hop := range path[1:] {
		h, msg, err := begin(hop)
		if err != nil {
			return 0, false, err
		}
		ext, err := cell.EncodeControl(&cell.ExtendPayload{
			Addr: hop.Address, Fingerprint: hop.Fingerprint(), Handshake: msg,
		})
		if err != nil {
			return 0, false, err
		}
		if err := sendSealed(cell.RelayHeader{Cmd: cell.RelayExtend}, ext, false); err != nil {
			return 0, false, err
		}
		hdr, data, err := readSealed()
		if err != nil {
			return 0, false, err
		}
		if hdr.Cmd != cell.RelayExtended {
			return 0, false, fmt.Errorf("unexpected relay %v, want EXTENDED", hdr.Cmd)
		}
		var extd cell.ExtendedPayload
		if err := cell.DecodeControl(data, &extd); err != nil {
			return 0, false, err
		}
		if err := finish(h, extd.Reply); err != nil {
			return 0, false, err
		}
	}
	virt = s.clock.Now() - t0

	if i%churnHSEvery == 0 {
		cookie := make([]byte, 16)
		binary.BigEndian.PutUint64(cookie, uint64(s.seed))
		binary.BigEndian.PutUint64(cookie[8:], uint64(i))
		est, err := cell.EncodeControl(&cell.EstablishRendezvousPayload{Cookie: cookie})
		if err != nil {
			return virt, false, err
		}
		if err := sendSealed(cell.RelayHeader{Cmd: cell.RelayEstablishRendezvous}, est, false); err != nil {
			return virt, false, err
		}
		hdr, _, err := readSealed()
		if err != nil {
			return virt, false, err
		}
		if hdr.Cmd != cell.RelayRendezvousEstablished {
			return virt, false, fmt.Errorf("unexpected relay %v, want RENDEZVOUS_ESTABLISHED", hdr.Cmd)
		}
		hs = true
	}
	for k := 0; k < churnCells; k++ {
		if err := sendSealed(cell.RelayHeader{Cmd: cell.RelayDrop}, payload, true); err != nil {
			return virt, hs, err
		}
	}
	return virt, hs, nil
}

// churnExpectedRelayCells is the closed form of what the relays must
// have counted: per client, the second EXTEND is forwarded once and its
// EXTENDED relayed back once, and each DROP crosses both forwarding
// hops; each rendezvous op adds two forwards and two relays-back.
func churnExpectedRelayCells(clients, hsOps int) (forwarded, back int64) {
	clients += int(expectationSkew())
	return int64(clients*(1+2*churnCells) + 2*hsOps), int64(clients + 2*hsOps)
}

func (s *churnSUT) close() {
	for _, r := range s.relays {
		r.Close()
	}
	s.clock.Stop()
}

// ---------------------------------------------------------------------
// Layer probes: single-goroutine loops over one public function each,
// with the input shapes the workloads give it. A probe runs its body
// iters times and returns the time spent in the measured calls alone.

type probeFn func(iters int) (time.Duration, error)

// probeSpec is one probe and the per-layer metric it feeds.
type probeSpec struct {
	Name string  // metric name
	Unit string  // ns, us or ms per Per
	Per  float64 // units of work in one iteration (steps per call); 0 = 1
	// PerAs, when set, also reports Per under that metric name.
	PerAs string
	Fn    probeFn
	// AllocsAs, when set, also reports heap allocations per iteration
	// under that metric name.
	AllocsAs string
	// Rate, when set instead of Fn, is a probe the program times itself
	// and reports as work per second.
	Rate func() float64
}

// probeSet holds every probe plus what must be torn down after them.
type probeSet struct {
	Specs   []probeSpec
	closers []func()
}

func (ps *probeSet) close() {
	for i := len(ps.closers) - 1; i >= 0; i-- {
		ps.closers[i]()
	}
}

func probeLayer(salt byte) (*otr.Layer, error) {
	keys := make([]byte, otr.KeyMaterialLen)
	for i := range keys {
		keys[i] = byte(i*7+3) ^ salt
	}
	return otr.NewLayer(keys)
}

func probeLayers3() ([]*otr.Layer, error) {
	out := make([]*otr.Layer, 3)
	for i := range out {
		l, err := probeLayer(byte(i + 1))
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}

// probePayload is a full DATA relay cell payload, as bulk traffic has.
func probePayload() ([]byte, error) {
	p := make([]byte, cell.PayloadLen)
	err := cell.PackRelay(p, cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, make([]byte, cell.MaxRelayData))
	return p, err
}

func probeWireFrame() ([]byte, error) {
	c := &cell.Cell{CircID: 7, Cmd: cell.CmdRelay}
	p, err := probePayload()
	if err != nil {
		return nil, err
	}
	copy(c.Payload[:], p)
	frame := make([]byte, cell.Size)
	c.EncodeInto(frame)
	return frame, nil
}

// ringReader serves the same wire frame forever: a saturated inbound
// link without the emulator under it.
type ringReader struct {
	frame []byte
	off   int
}

func (r *ringReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

type discardCloser struct{}

func (discardCloser) Write(p []byte) (int, error) { return len(p), nil }
func (discardCloser) Close() error                { return nil }

// roundUp scales the time of a loop that ran in whole batches back to
// the iters the caller asked for.
func roundUp(spent time.Duration, iters, batch int) time.Duration {
	ran := (iters + batch - 1) / batch * batch
	return spent * time.Duration(iters) / time.Duration(ran)
}

// newProbeSet builds every probe. seed shapes the probe world's page.
func newProbeSet(seed int64) (*probeSet, error) {
	ps := &probeSet{}
	add := func(s probeSpec) { ps.Specs = append(ps.Specs, s) }
	fail := func(err error) (*probeSet, error) {
		ps.close()
		return nil, err
	}

	// --- otr ---------------------------------------------------------
	onion, err := otr.NewOnionKey()
	if err != nil {
		return fail(err)
	}
	relayID := []byte("probe-relay-fingerprint")
	add(probeSpec{Name: "otr.handshake_us", Unit: "us", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			hs, msg, err := otr.NewClientHandshake(relayID, onion.Public())
			if err != nil {
				return 0, err
			}
			reply, _, err := otr.ServerHandshake(relayID, onion, msg)
			if err != nil {
				return 0, err
			}
			if _, err := hs.Finish(reply); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}})

	layers, err := probeLayers3()
	if err != nil {
		return fail(err)
	}
	payload, err := probePayload()
	if err != nil {
		return fail(err)
	}
	sealed := append([]byte(nil), payload...) // encrypted in place, over and over
	add(probeSpec{Name: "otr.onion3_ns", Unit: "ns", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			otr.OnionEncrypt(layers, 2, sealed, cell.DigestOffset)
		}
		return time.Since(start), nil
	}})

	// The client peeling three backward layers. Relay-side twins of the
	// layers seal each batch first, untimed: both ends' stream state
	// must advance in step.
	peelClient, err := probeLayers3()
	if err != nil {
		return fail(err)
	}
	peelRelays, err := probeLayers3()
	if err != nil {
		return fail(err)
	}
	const peelBatch = 256
	peelCells := make([][]byte, peelBatch)
	for i := range peelCells {
		peelCells[i] = make([]byte, cell.PayloadLen)
	}
	add(probeSpec{Name: "otr.onion3_peel_ns", Unit: "ns", Fn: func(iters int) (time.Duration, error) {
		var spent time.Duration
		for done := 0; done < iters; done += peelBatch {
			for _, c := range peelCells {
				copy(c, payload)
				peelRelays[2].SealBackward(c, cell.DigestOffset)
				for h := 2; h >= 0; h-- {
					peelRelays[h].ApplyBackward(c)
				}
			}
			start := time.Now()
			for _, c := range peelCells {
				if otr.OnionDecrypt(peelClient, c, cell.RecognizedOffset, cell.DigestOffset) != 2 {
					return 0, errors.New("backward cell not recognised at hop 3")
				}
			}
			spent += time.Since(start)
		}
		return roundUp(spent, iters, peelBatch), nil
	}})

	// A middle relay's per-cell crypto: peel one layer, find the cell is
	// addressed further down.
	midLayer, err := probeLayer(9)
	if err != nil {
		return fail(err)
	}
	midPayload := append([]byte(nil), payload...)
	add(probeSpec{Name: "otr.layer_fwd_ns", Unit: "ns", Fn: func(iters int) (time.Duration, error) {
		recognised := 0
		start := time.Now()
		for i := 0; i < iters; i++ {
			midLayer.ApplyForward(midPayload)
			if cell.Recognized(midPayload) && midLayer.VerifyForward(midPayload, cell.DigestOffset) {
				recognised++
			}
		}
		spent := time.Since(start)
		if recognised > 0 {
			return 0, fmt.Errorf("%d keystream outputs verified as recognised cells", recognised)
		}
		return spent, nil
	}})

	const fwdBatch = 16
	batchLayer, err := probeLayer(10)
	if err != nil {
		return fail(err)
	}
	var scratch otr.CryptScratch
	views := make([][]byte, fwdBatch)
	for i := range views {
		views[i] = append([]byte(nil), payload...)
	}
	add(probeSpec{Name: "otr.batch_fwd_ns", Unit: "ns", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for done := 0; done < iters; done += fwdBatch {
			batchLayer.ApplyForwardBatch(views, &scratch)
		}
		return roundUp(time.Since(start), iters, fwdBatch), nil
	}})

	// --- cell --------------------------------------------------------
	frame, err := probeWireFrame()
	if err != nil {
		return fail(err)
	}
	// The relay's per-cell framing work: read a frame in place,
	// re-address it, append it to the outgoing batch.
	src := &ringReader{frame: frame}
	wireBuf := make([]byte, cell.Size)
	out := make([]byte, 0, 64*cell.Size)
	add(probeSpec{Name: "cell.codec_ns", Unit: "ns", AllocsAs: "cell.allocs_per_cell", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := cell.ReadWire(src, wireBuf); err != nil {
				return 0, err
			}
			cell.SetWireCircID(wireBuf, 9)
			if len(out) == cap(out) {
				out = out[:0]
			}
			out = append(out, wireBuf...)
		}
		return time.Since(start), nil
	}})

	bw := cell.NewBatchWriter(discardCloser{})
	ps.closers = append(ps.closers, bw.Close)
	add(probeSpec{Name: "cell.batchwriter_ns", Unit: "ns", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := bw.WriteFrame(frame); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}})

	// --- relay -------------------------------------------------------
	// The sharded worker datapath in isolation, timed by the program.
	add(probeSpec{Name: "relay.forward_cells_per_s", Unit: "1/s", Rate: func() float64 {
		return relay.RunParallelForwardBench(1, 64, 3000)
	}})

	// --- simnet ------------------------------------------------------
	// Schedule + pop + fire per timer on a bare event clock.
	evClock := simnet.NewEventClock()
	ps.closers = append(ps.closers, evClock.Stop)
	var fired atomic.Int64
	tick := func() { fired.Add(1) }
	add(probeSpec{Name: "simnet.timer_ns", Unit: "ns", Fn: func(iters int) (time.Duration, error) {
		fired.Store(0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			evClock.AfterFunc(time.Duration(1+i%1000)*time.Microsecond, tick)
		}
		evClock.Sleep(2 * time.Millisecond)
		spent := time.Since(start)
		if got := fired.Load(); got != int64(iters) {
			return 0, fmt.Errorf("%d of %d timers fired", got, iters)
		}
		return spent, nil
	}})

	// --- the probe world: path-level probes share one deployment ------
	pw, err := newProbeWorld(seed)
	if err != nil {
		return fail(err)
	}
	ps.closers = append(ps.closers, pw.close)

	add(probeSpec{Name: "simnet.conn_chunk_ns", Unit: "ns", Fn: pw.connChunks})
	add(probeSpec{Name: "torclient.build_ms", Unit: "ms", Fn: pw.build})
	add(probeSpec{Name: "torclient.stream_open_ms", Unit: "ms", Fn: pw.streamOpen})
	add(probeSpec{Name: "bento.invoke_overhead_us", Unit: "us", Fn: pw.noopInvoke})
	add(probeSpec{Name: "webfarm.fetch_ms", Unit: "ms", Fn: pw.webFetch})
	add(probeSpec{Name: "dirauth.consensus_ms", Unit: "ms", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := pw.tb.Auth.Consensus(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}})

	// --- standard library, for the ledger ----------------------------
	// What Browser's zlib.compress and the client's check of the reply
	// cost for one page: compress/flate time no layer here owns.
	page := sitePage(fetchSite(seed))
	var zbuf bytes.Buffer
	add(probeSpec{Name: "stdlib.zlib_page_us", Unit: "us", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			zbuf.Reset()
			zw := zlib.NewWriter(&zbuf)
			if _, err := zw.Write(page); err != nil {
				return 0, err
			}
			if err := zw.Close(); err != nil {
				return 0, err
			}
			got, err := functions.UnpadBrowser(zbuf.Bytes())
			if err != nil {
				return 0, err
			}
			if len(got) != len(page) {
				return 0, errWrongOutput
			}
		}
		return time.Since(start), nil
	}})

	// --- wire --------------------------------------------------------
	for _, m := range []struct {
		name string
		size int
	}{{"wire.msg_1k_ns", 1 << 10}, {"wire.msg_32k_ns", 32 << 10}} {
		type msg struct {
			Op   string `json:"op"`
			Data []byte `json:"data"`
		}
		in := msg{Op: "invoke", Data: bytes.Repeat([]byte{0xa5}, m.size)}
		var buf bytes.Buffer
		dec := wire.NewDecoder(&buf)
		add(probeSpec{Name: m.name, Unit: "ns", Fn: func(iters int) (time.Duration, error) {
			var out msg
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := wire.WriteJSON(&buf, &in); err != nil {
					return 0, err
				}
				if err := dec.Decode(&out); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}})
	}

	// --- sandbox + enclave -------------------------------------------
	platform, err := enclave.NewPlatform(enclave.MinTCBVersion)
	if err != nil {
		return fail(err)
	}
	sup := sandbox.NewSupervisor(policy.DefaultMiddlebox(), nil, platform, io.Discard)
	for _, im := range []struct{ name, image string }{
		{"sandbox.spawn_us", "python"}, {"sandbox.spawn_sgx_us", "python-op-sgx"},
	} {
		man := functions.DefaultManifest("probe", im.image)
		add(probeSpec{Name: im.name, Unit: "us", Fn: func(iters int) (time.Duration, error) {
			start := time.Now()
			for i := 0; i < iters; i++ {
				c, err := sup.Spawn(man)
				if err != nil {
					return 0, err
				}
				sup.Remove(c.ID())
			}
			return time.Since(start), nil
		}})
	}

	ias, err := enclave.NewAttestationService()
	if err != nil {
		return fail(err)
	}
	ias.RegisterPlatform(platform.QuotingKey())
	image := []byte("probe-image")
	enc, err := platform.Launch(image, 1<<20)
	if err != nil {
		return fail(err)
	}
	ps.closers = append(ps.closers, enc.Destroy)
	nonce := []byte("0123456789abcdef")
	add(probeSpec{Name: "enclave.attest_us", Unit: "us", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			q, err := enc.GenerateQuote(nonce)
			if err != nil {
				return 0, err
			}
			rep, err := ias.Verify(q)
			if err != nil {
				return 0, err
			}
			if err := enclave.CheckReport(rep, ias.PublicKey(), enclave.Measure(image), nonce); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}})

	// --- interp ------------------------------------------------------
	add(probeSpec{Name: "interp.compile_us", Unit: "us", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := interp.Compile(functions.BrowserSource); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}})
	// What a program-cache hit still pays per upload.
	prog, err := interp.Compile(functions.BrowserSource)
	if err != nil {
		return fail(err)
	}
	add(probeSpec{Name: "interp.load_us", Unit: "us", Fn: func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := interp.NewMachine(interp.Limits{}).RunProgram(prog); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}})
	// compute and build on one long-lived machine, priced per VM step.
	m := interp.NewMachine(interp.Limits{Instructions: 1 << 62, Memory: 1 << 40})
	iprog, err := m.Compile(invokeSource)
	if err != nil {
		return fail(err)
	}
	if err := m.RunProgram(iprog); err != nil {
		return fail(err)
	}
	for _, c := range []struct{ name, fn, steps, allocs string }{
		{"interp.compute_ns_per_step", "compute", "interp.compute_steps_per_call", "interp.allocs_per_call"},
		{"interp.build_ns_per_step", "build", "interp.build_steps_per_call", ""},
	} {
		before := m.Steps()
		if _, err := m.CallFunction(c.fn, interp.Int(invokeN)); err != nil {
			return fail(err)
		}
		add(probeSpec{Name: c.name, Unit: "ns", Per: float64(m.Steps() - before), PerAs: c.steps, AllocsAs: c.allocs,
			Fn: func(iters int) (time.Duration, error) {
				start := time.Now()
				for i := 0; i < iters; i++ {
					if _, err := m.CallFunction(c.fn, interp.Int(invokeN)); err != nil {
						return 0, err
					}
				}
				return time.Since(start), nil
			}})
	}
	return ps, nil
}

// probeWorld is a small goroutine-relay deployment the path probes share.
type probeWorld struct {
	*world
	ln   net.Listener
	tor  *torclient.Client
	path []*dirauth.Descriptor
	circ *torclient.Circuit
	inv  *invokeSUT
	// circStreams counts the streams opened on circ so far.
	circStreams int

	chunkLn   net.Listener
	chunkConn net.Conn
	chunkWant chan int // bytes the far end should drain next
	chunkDone chan error
	frame     []byte
}

func newProbeWorld(seed int64) (*probeWorld, error) {
	w, err := newWorld(6, 1, []*webfarm.Site{fetchSite(seed)}, false)
	if err != nil {
		return nil, err
	}
	p := &probeWorld{world: w, chunkWant: make(chan int), chunkDone: make(chan error)}
	fail := func(err error) (*probeWorld, error) {
		p.close()
		return nil, err
	}
	if p.frame, err = probeWireFrame(); err != nil {
		return fail(err)
	}
	sink := w.tb.Net.AddHost("sink", 0)
	// The sink here only accepts: stream_open measures BEGIN/CONNECTED.
	// It holds each conn until the exit closes it; hanging up first lets
	// the exit's END overtake its CONNECTED, which reads as a refusal.
	if p.ln, err = sink.Listen(sinkPort); err != nil {
		return fail(err)
	}
	go func() {
		for {
			conn, err := p.ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, conn)
				conn.Close()
			}()
		}
	}()
	// The conn probe's far end: drains as many bytes as it is told to.
	if p.chunkLn, err = sink.Listen(sinkPort + 1); err != nil {
		return fail(err)
	}
	go func() {
		conn, err := p.chunkLn.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for left := range p.chunkWant {
			var err error
			for left > 0 && err == nil {
				var n int
				n, err = conn.Read(buf)
				left -= n
			}
			p.chunkDone <- err
		}
	}()
	p.chunkConn, err = w.tb.Net.AddHost("chunk-src", 0).Dial(fmt.Sprintf("sink:%d", sinkPort+1))
	if err != nil {
		return fail(err)
	}
	p.tor = w.tb.NewTorClient("prober", seed)
	p.tor.SetCtrlTimeout(ctrlTimeout)
	p.path = w.tb.Consensus.Relays[:3]
	if p.circ, err = p.tor.BuildCircuit(p.path); err != nil {
		return fail(err)
	}
	conn, err := w.bentoClient("noop", seed).Connect(w.tb.BentoNode(0))
	if err != nil {
		return fail(err)
	}
	p.inv = &invokeSUT{world: w, conn: conn, man: functions.DefaultManifest("noop", "python")}
	return p, nil
}

func (p *probeWorld) close() {
	close(p.chunkWant)
	if p.inv != nil {
		p.inv.conn.Close()
	}
	if p.circ != nil {
		p.circ.Close()
	}
	if p.chunkConn != nil {
		p.chunkConn.Close()
	}
	if p.chunkLn != nil {
		p.chunkLn.Close()
	}
	if p.ln != nil {
		p.ln.Close()
	}
	p.world.close()
}

// connChunks pushes cell-sized chunks over one conn pair, a goroutine
// draining the far end: what every link hop pays per cell it is handed.
func (p *probeWorld) connChunks(iters int) (time.Duration, error) {
	p.chunkWant <- iters * len(p.frame)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := p.chunkConn.Write(p.frame); err != nil {
			return 0, err
		}
	}
	err := <-p.chunkDone
	return time.Since(start), err
}

func (p *probeWorld) build(iters int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		circ, err := p.tor.BuildCircuit(p.path)
		if err != nil {
			return 0, err
		}
		circ.Close()
	}
	return time.Since(start), nil
}

// streamsPerCircuit bounds how many streams the probe opens on one
// circuit, so a long probe never depends on what a circuit does when its
// 16-bit stream IDs wrap.
const streamsPerCircuit = 1000

func (p *probeWorld) streamOpen(iters int) (time.Duration, error) {
	target := fmt.Sprintf("sink:%d", sinkPort)
	var spent time.Duration
	for done := 0; done < iters; {
		if p.circStreams >= streamsPerCircuit {
			p.circ.Close()
			circ, err := p.tor.BuildCircuit(p.path)
			if err != nil {
				return 0, err
			}
			p.circ, p.circStreams = circ, 0
		}
		n := min(iters-done, streamsPerCircuit-p.circStreams)
		start := time.Now()
		for i := 0; i < n; i++ {
			st, err := p.circ.OpenStream(target)
			if err != nil {
				return 0, err
			}
			st.Close()
		}
		spent += time.Since(start)
		done += n
		p.circStreams += n
	}
	return spent, nil
}

// webFetch is the floor under bento.invoke_ms: the same page fetched
// straight from the web host, no Tor and no function.
func (p *probeWorld) webFetch(iters int) (time.Duration, error) {
	host := p.tb.Net.Host("relay0")
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := webfarm.FetchPage(host.Dial, fetchDomain); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// noopInvoke prices one invoke round trip with an empty function body.
func (p *probeWorld) noopInvoke(iters int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := p.inv.noop(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
