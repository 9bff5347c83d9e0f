// Package webfarm provides the synthetic web it takes to evaluate Bento
// offline: a farm of deterministic websites (stable page and resource
// sizes per site, so each site has a consistent traffic fingerprint — the
// property website-fingerprinting attacks exploit) served over a minimal
// HTTP/1.0 subset, plus a browser-like fetcher that retrieves a page and
// all its resources through any dialer (direct or a Tor stream).
package webfarm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/wire"
)

// Port is the farm's HTTP port.
const Port = 80

// Resource is one sub-resource of a page.
type Resource struct {
	Path string
	Size int
}

// Site is a deterministic website profile.
type Site struct {
	Domain    string
	HTMLSize  int
	Resources []Resource
	// Compressible selects realistic page-like content (compresses
	// roughly 3-4x under zlib, as HTML/JS does) instead of
	// incompressible pseudorandom filler.
	Compressible bool
	seed         int64
}

// TotalSize is the page weight: HTML plus all resources.
func (s *Site) TotalSize() int {
	total := s.HTMLSize
	for _, r := range s.Resources {
		total += r.Size
	}
	return total
}

// GenerateSites produces n sites with stable, distinguishable profiles.
// Site i's layout depends only on (seed, i), so repeated visits produce
// the same traffic pattern.
func GenerateSites(n int, seed int64) []*Site {
	sites := make([]*Site, 0, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		s := &Site{
			Domain:   fmt.Sprintf("site-%03d.web", i),
			HTMLSize: 2_000 + rng.Intn(80_000),
			seed:     seed + int64(i)*7919,
		}
		nres := 2 + rng.Intn(18)
		for r := 0; r < nres; r++ {
			s.Resources = append(s.Resources, Resource{
				Path: fmt.Sprintf("/r%d", r),
				Size: 1_000 + rng.Intn(250_000),
			})
		}
		sites = append(sites, s)
	}
	return sites
}

// NamedSite builds a site with explicit sizes (the Table 2 domains).
func NamedSite(domain string, htmlSize int, resourceSizes []int) *Site {
	s := &Site{Domain: domain, HTMLSize: htmlSize, seed: int64(len(domain)) * 1_000_003}
	for i, size := range resourceSizes {
		s.Resources = append(s.Resources, Resource{Path: fmt.Sprintf("/r%d", i), Size: size})
	}
	return s
}

// Body returns the deterministic bytes served at path, or nil for an
// unknown path. The HTML at "/" begins with a resource manifest the
// fetcher follows, padded with deterministic filler to HTMLSize.
func (s *Site) Body(path string) []byte {
	if path == "/" || path == "/index.html" {
		var b strings.Builder
		for _, r := range s.Resources {
			fmt.Fprintf(&b, "RES %s %d\n", r.Path, r.Size)
		}
		b.WriteString("BODY\n")
		head := b.String()
		if len(head) >= s.HTMLSize {
			return []byte(head)
		}
		pad := s.HTMLSize - len(head)
		if s.Compressible {
			return append([]byte(head), compressibleFiller(s.seed, pad)...)
		}
		return append([]byte(head), filler(s.seed, pad)...)
	}
	for i, r := range s.Resources {
		if r.Path == path {
			if s.Compressible {
				return compressibleFiller(s.seed+int64(i)+1, r.Size)
			}
			return filler(s.seed+int64(i)+1, r.Size)
		}
	}
	return nil
}

// compressibleFiller mimics real page content — a mix of repetitive
// markup and already-compressed media — targeting a zlib ratio around
// 1.6x (40% repeated phrase blocks, 60% high-entropy blocks).
func compressibleFiller(seed int64, n int) []byte {
	const block = 48
	phrase := filler(seed, block)
	out := make([]byte, 0, n+block)
	for i := 0; len(out) < n; i++ {
		if i%5 < 2 {
			out = append(out, phrase...)
		} else {
			out = append(out, filler(seed+int64(i)*31, block)...)
		}
	}
	return out[:n]
}

// filler is deterministic pseudorandom content (xorshift64).
func filler(seed int64, n int) []byte {
	out := make([]byte, n)
	x := uint64(seed)*2654435761 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// Server serves one or more sites from a single emulated host (virtual
// hosting by the request's Host header, defaulting to the first site).
type Server struct {
	ln    net.Listener
	sites map[string]*Site
	first *Site

	// bodies memoises Body per (site, path): the farm is a fixture, and
	// regenerating a page per request made it the largest allocator of a
	// fetch. A site's fields must not change once it is being served.
	mu     sync.Mutex
	bodies map[bodyKey][]byte
}

type bodyKey struct {
	site *Site
	path string
}

// Serve starts serving the given sites on the host's HTTP port, with no
// goroutine of its own.
func Serve(host *simnet.Host, sites ...*Site) (*Server, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("webfarm: no sites")
	}
	srv := &Server{sites: make(map[string]*Site), first: sites[0], bodies: make(map[bodyKey][]byte)}
	for _, s := range sites {
		srv.sites[s.Domain] = s
	}
	ln, err := host.ServeRequests(Port, splitRequest, srv.handle)
	if err != nil {
		return nil, err
	}
	srv.ln = ln
	return srv, nil
}

// Close stops the server.
func (s *Server) Close() error { return s.ln.Close() }

// maxRequestHead bounds a request's head: its request line and headers,
// through the blank line that ends them. The fetcher's are under 100
// bytes; 8 KiB is the limit common HTTP servers put on a request head.
const maxRequestHead = 8 << 10

// headEnd is the blank line (CRLF or LF) that ends a request's head.
var headEnd = regexp.MustCompile("\n\r?\n")

// splitRequest is the server's split (simnet.Host.ServeRequests): a GET
// is its head alone.
func splitRequest(buf []byte) (int, error) {
	if end := headEnd.FindIndex(buf[:min(len(buf), maxRequestHead)]); end != nil {
		return end[1], nil
	}
	if len(buf) >= maxRequestHead {
		return 0, fmt.Errorf("webfarm: request head over %d bytes", maxRequestHead)
	}
	return 0, nil
}

// handle answers one request, in delivery context: the status line and
// headers in one write, then the body in another.
func (s *Server) handle(req []byte, w io.Writer) bool {
	lines := strings.Split(string(req), "\n")
	fields := strings.Fields(lines[0])
	if len(fields) < 2 {
		return false
	}
	var host string
	for _, h := range lines[1:] {
		if v, ok := strings.CutPrefix(strings.TrimSpace(h), "Host: "); ok {
			host = v
		}
	}
	site, ok := s.sites[host]
	if !ok {
		site = s.first
	}
	if fields[0] != "GET" {
		writeResponse(w, 405, nil)
		return false
	}
	body := s.body(site, fields[1])
	status := 200
	if body == nil {
		status = 404
	}
	return writeResponse(w, status, body) == nil
}

// body is site.Body(path), generated once and shared between requests.
func (s *Server) body(site *Site, path string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := bodyKey{site, path}
	body, ok := s.bodies[k]
	if !ok {
		body = site.Body(path)
		if body != nil { // unknown paths are not worth remembering
			s.bodies[k] = body
		}
	}
	return body
}

func writeResponse(w io.Writer, status int, body []byte) error {
	text := map[int]string{200: "OK", 404: "Not Found", 405: "Method Not Allowed"}[status]
	if _, err := fmt.Fprintf(w, "HTTP/1.0 %d %s\r\nContent-Length: %d\r\n\r\n", status, text, len(body)); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// Dialer opens a connection to "host:port" — a simnet host's Dial or a
// Tor circuit's OpenStream.
type Dialer func(target string) (net.Conn, error)

// Get fetches a single URL ("domain/path") through the dialer.
func Get(dial Dialer, domain, path string) ([]byte, error) {
	conn, err := dial(fmt.Sprintf("%s:%d", domain, Port))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return getOn(conn, domain, path)
}

// maxBody bounds a body the fetcher takes in. The farm's pages and
// resources are under 300 KB; a fetch a tenant makes lands in its memory,
// whose default limit this matches.
const maxBody = 16 << 20

func getOn(conn net.Conn, domain, path string) ([]byte, error) {
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.0\r\nHost: %s\r\n\r\n", path, domain); err != nil {
		return nil, err
	}
	r := bufio.NewReader(conn)
	status, length, err := readResponseHeader(r)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("webfarm: GET %s%s: status %d", domain, path, status)
	}
	body, err := wire.ReadGrowing(r, nil, length)
	if err != nil {
		return nil, fmt.Errorf("webfarm: short body for %s%s: %w", domain, path, err)
	}
	return body, nil
}

// readResponseHeader reads the status line and headers, each line within
// the reader's buffer.
func readResponseHeader(r *bufio.Reader) (status, length int, err error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	fields := strings.Fields(string(line))
	if len(fields) < 2 {
		return 0, 0, fmt.Errorf("webfarm: bad status line %q", line)
	}
	status, err = strconv.Atoi(fields[1])
	if err != nil {
		return 0, 0, fmt.Errorf("webfarm: bad status %q", fields[1])
	}
	for {
		h, err := r.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		h = bytes.TrimSpace(h)
		if len(h) == 0 {
			return status, length, nil
		}
		if v, ok := bytes.CutPrefix(h, []byte("Content-Length: ")); ok {
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 || length > maxBody {
				return 0, 0, fmt.Errorf("webfarm: bad content length %q", v)
			}
		}
	}
}

// FetchPage acts like a browser: it fetches the page HTML, parses the
// resource manifest, fetches every resource over the same connection, and
// returns the concatenated page bytes.
func FetchPage(dial Dialer, domain string) ([]byte, error) {
	conn, err := dial(fmt.Sprintf("%s:%d", domain, Port))
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	html, err := getOn(conn, domain, "/")
	if err != nil {
		return nil, err
	}
	page := append([]byte(nil), html...)
	for _, path := range ParseResourcePaths(html) {
		body, err := getOn(conn, domain, path)
		if err != nil {
			return nil, err
		}
		page = append(page, body...)
	}
	return page, nil
}

// ParseResourcePaths extracts the resource manifest from page HTML.
func ParseResourcePaths(html []byte) []string {
	var out []string
	for _, line := range strings.Split(string(html), "\n") {
		if line == "BODY" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "RES" {
			out = append(out, fields[1])
		}
	}
	return out
}
