package webfarm

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/simnet"
)

func testNet(t *testing.T) *simnet.Network {
	t.Helper()
	return simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
}

func TestSitesDeterministic(t *testing.T) {
	a := GenerateSites(10, 42)
	b := GenerateSites(10, 42)
	for i := range a {
		if a[i].Domain != b[i].Domain || a[i].TotalSize() != b[i].TotalSize() {
			t.Fatalf("site %d not deterministic", i)
		}
		if !bytes.Equal(a[i].Body("/"), b[i].Body("/")) {
			t.Fatalf("site %d HTML not deterministic", i)
		}
	}
	// Different seeds differ.
	c := GenerateSites(10, 43)
	same := 0
	for i := range a {
		if a[i].TotalSize() == c[i].TotalSize() {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed has no effect")
	}
}

func TestSitesDistinguishable(t *testing.T) {
	sites := GenerateSites(50, 7)
	sizes := make(map[int]int)
	for _, s := range sites {
		sizes[s.TotalSize()]++
	}
	if len(sizes) < 45 {
		t.Fatalf("only %d distinct page weights across 50 sites", len(sizes))
	}
}

func TestServeAndGet(t *testing.T) {
	n := testNet(t)
	site := NamedSite("example.web", 5000, []int{1000, 2000})
	host := n.AddHost("example.web", 0)
	srv, err := Serve(host, site)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := n.AddHost("client", 0)
	body, err := Get(client.Dial, "example.web", "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 5000 {
		t.Fatalf("HTML length %d, want 5000", len(body))
	}
	if got := ParseResourcePaths(body); len(got) != 2 {
		t.Fatalf("parsed %d resources, want 2", len(got))
	}
	if _, err := Get(client.Dial, "example.web", "/missing"); err == nil {
		t.Fatal("404 path returned content")
	}
}

func TestFetchPage(t *testing.T) {
	n := testNet(t)
	site := NamedSite("shop.web", 3000, []int{4000, 5000, 6000})
	host := n.AddHost("shop.web", 0)
	srv, err := Serve(host, site)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := n.AddHost("client", 0)
	page, err := FetchPage(client.Dial, "shop.web")
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != site.TotalSize() {
		t.Fatalf("page size %d, want %d", len(page), site.TotalSize())
	}
	// Fetching twice yields identical bytes (stable fingerprint).
	page2, err := FetchPage(client.Dial, "shop.web")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, page2) {
		t.Fatal("page content unstable across visits")
	}
}

func TestVirtualHosting(t *testing.T) {
	n := testNet(t)
	a := NamedSite("a.web", 1000, nil)
	b := NamedSite("b.web", 9000, nil)
	host := n.AddHost("farm", 0)
	srv, err := Serve(host, a, b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := n.AddHost("client", 0)
	bodyA, err := Get(client.Dial, "farm", "/")
	if err != nil {
		t.Fatal(err)
	}
	// Host header routed by Get uses the dialed domain ("farm"), which is
	// unknown, so the first site is served.
	if len(bodyA) != 1000 {
		t.Fatalf("default vhost served %d bytes, want 1000", len(bodyA))
	}
}

func TestServeNoSites(t *testing.T) {
	n := testNet(t)
	host := n.AddHost("empty", 0)
	if _, err := Serve(host); err == nil {
		t.Fatal("Serve with no sites succeeded")
	}
}

func TestFillerDeterministic(t *testing.T) {
	a := filler(5, 1000)
	b := filler(5, 1000)
	c := filler(6, 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("filler not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Fatal("filler ignores seed")
	}
}

// TestBodyMemoised: the server generates a page once per (site, path) and
// then serves it from memory, also under concurrent requests; unknown
// paths are neither served nor remembered.
func TestBodyMemoised(t *testing.T) {
	site := NamedSite("memo.web", 4000, []int{3000})
	srv := &Server{bodies: make(map[bodyKey][]byte)}
	for _, path := range []string{"/", "/r0"} {
		first := srv.body(site, path)
		if !bytes.Equal(first, site.Body(path)) {
			t.Fatalf("%s: memoised body differs from a generated one", path)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if again := srv.body(site, path); &again[0] != &first[0] {
					t.Errorf("%s: regenerated on a repeat request", path)
				}
			}()
		}
		wg.Wait()
	}
	for i := 0; i < 3; i++ {
		if srv.body(site, "/nope") != nil {
			t.Fatal("unknown path served")
		}
	}
	if len(srv.bodies) != 2 {
		t.Fatalf("%d paths remembered, want 2", len(srv.bodies))
	}
}
