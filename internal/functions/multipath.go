package functions

import (
	"fmt"
	"sync"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/simnet"
)

// Multipath downloads (§9.4, "Multipath routing"): rather than modifying
// Tor to stripe one stream across circuits, the same effect is built from
// Bento functions — fetcher functions on several middlebox nodes each
// return a distinct byte range of the resource, and the client downloads
// the slices over disjoint circuits concurrently, aggregating bandwidth
// across paths.

// MultipathFetcherSource is the per-node slice fetcher.
const MultipathFetcherSource = `
def fetch_slice(url, index, total):
    body = requests.get(url)
    n = len(body)
    lo = n * index // total
    hi = n * (index + 1) // total
    api.send(body[lo:hi])
    return n
`

// MultipathResult reports a multipath download.
type MultipathResult struct {
	Data  []byte
	Paths int
	// PerPath holds each slice's byte count, for diagnostics.
	PerPath []int
}

// MultipathFetch downloads url through `paths` concurrent fetcher
// functions spread round-robin across the given Bento nodes. Each path
// uses its own circuit, so slices ride disjoint (up to path-selection
// randomness) routes.
func MultipathFetch(cli *bento.Client, nodes []*dirauth.Descriptor, url string, paths int) (*MultipathResult, error) {
	if paths < 1 {
		return nil, fmt.Errorf("functions: need at least one path")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("functions: no Bento nodes provided")
	}

	// Each path runs on a simulation goroutine; the caller waits for the
	// count of finished ones on the clock.
	clock := cli.Tor.Clock()
	results := make([]sliceResult, paths)
	var mu sync.Mutex
	finished := 0
	cond := simnet.NewCond(clock, &mu)
	for i := 0; i < paths; i++ {
		clock.Go(func() {
			results[i] = fetchSlice(cli, nodes[i%len(nodes)], url, i, paths)
			mu.Lock()
			finished++
			mu.Unlock()
			cond.Broadcast()
		})
	}
	mu.Lock()
	for finished < paths {
		cond.Wait()
	}
	mu.Unlock()

	out := &MultipathResult{Paths: paths}
	total := -1
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("functions: path %d: %w", i, r.err)
		}
		if total == -1 {
			total = r.total
		} else if total != r.total {
			return nil, fmt.Errorf("functions: paths disagree on resource size (%d vs %d)", total, r.total)
		}
		out.Data = append(out.Data, r.data...)
		out.PerPath = append(out.PerPath, len(r.data))
	}
	if len(out.Data) != total {
		return nil, fmt.Errorf("functions: reassembled %d bytes, expected %d", len(out.Data), total)
	}
	return out, nil
}

// sliceResult is one path's share of a multipath download.
type sliceResult struct {
	data  []byte
	total int
	err   error
}

// fetchSlice deploys a fetcher on node and has it send slice index of
// total of url.
func fetchSlice(cli *bento.Client, node *dirauth.Descriptor, url string, index, total int) sliceResult {
	conn, err := cli.Connect(node)
	if err != nil {
		return sliceResult{err: err}
	}
	defer conn.Close()
	man := DefaultManifest("multipath-fetcher", "python")
	man.Calls = []string{"net.dial", "tor.send"}
	fn, err := Deploy(conn, man, MultipathFetcherSource)
	if err != nil {
		return sliceResult{err: err}
	}
	defer fn.Shutdown()
	data, totalVal, err := fn.Invoke("fetch_slice", interp.Str(url), interp.Int(index), interp.Int(total))
	if err != nil {
		return sliceResult{err: err}
	}
	size, _ := totalVal.(interp.Int)
	return sliceResult{data: data, total: int(size)}
}
