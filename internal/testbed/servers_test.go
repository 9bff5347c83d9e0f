package testbed

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/functions"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/stackscan"
	"github.com/bento-nfv/bento/internal/webfarm"
	"github.com/bento-nfv/bento/internal/wire"
)

// keepOpen hides Close from FetchPage, so its connection stays open.
type keepOpen struct{ net.Conn }

func (keepOpen) Close() error { return nil }

// TestServersHoldNoGoroutines: the directory authority, the relays'
// ORPorts and HSDirs, the web farm and the Bento server serve with deliver
// callbacks, so connections left open and idle after a consensus fetch, an
// HSDir store and fetch, a page fetch, and a Bento spawn, upload and invoke
// hold no goroutine in those packages, on either clock.
func TestServersHoldNoGoroutines(t *testing.T) {
	for _, clock := range []struct {
		name  string
		event bool
	}{{"wall", false}, {"event", true}} {
		t.Run(clock.name, func(t *testing.T) {
			site := webfarm.NamedSite("idle.web", 20_000, []int{70_000, 3_000})
			w, err := New(Config{Relays: 3, BentoNodes: 1, Sites: []*webfarm.Site{site}, EventClock: clock.event})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			dir, err := dirauth.Serve(w.Net.AddHost("dir", 0), w.Auth)
			if err != nil {
				t.Fatal(err)
			}
			defer dir.Close()

			cli := w.Net.AddHost("cli", 0)
			var open []net.Conn
			defer func() {
				for _, c := range open {
					c.Close()
				}
			}()
			dial := func(target string) (net.Conn, error) {
				c, err := cli.Dial(target)
				if err != nil {
					return nil, err
				}
				open = append(open, c)
				return keepOpen{c}, nil
			}
			ask := func(conn net.Conn, req any) {
				t.Helper()
				var resp struct {
					OK    bool   `json:"ok"`
					Error string `json:"error"`
				}
				if err := wire.WriteJSON(conn, req); err != nil {
					t.Fatal(err)
				}
				if err := wire.NewDecoder(conn).Decode(&resp); err != nil || !resp.OK {
					t.Fatalf("%v answered %+v, %v", req, resp, err)
				}
			}
			dc, err := dial(fmt.Sprintf("dir:%d", dirauth.DefaultPort))
			if err != nil {
				t.Fatal(err)
			}
			ask(dc, map[string]string{"op": "consensus"})
			hc, err := dial(fmt.Sprintf("relay0:%d", relay.HSDirPort))
			if err != nil {
				t.Fatal(err)
			}
			ask(hc, map[string]any{"op": "store", "service_id": "svc", "descriptor": []byte("desc")})
			ask(hc, map[string]any{"op": "fetch", "service_id": "svc"})
			if _, err := webfarm.FetchPage(dial, "idle.web"); err != nil {
				t.Fatal(err)
			}

			bc, err := dial(fmt.Sprintf("relay0:%d", bento.Port))
			if err != nil {
				t.Fatal(err)
			}
			fn, err := functions.Deploy(bento.NewClient(nil, nil).AttachStream(bc),
				functions.DefaultManifest("hello", "python"), "def hello():\n    api.send(b\"hi\")\n    return 1\n")
			if err != nil {
				t.Fatal(err)
			}
			if out, _, err := fn.Invoke("hello"); err != nil || string(out) != "hi" {
				t.Fatalf("invoke: %q, %v", out, err)
			}

			for _, pkg := range []string{"/internal/dirauth/", "/internal/webfarm/", "/internal/relay/", "/internal/bento/"} {
				var held []string
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
					if held = stackscan.In(pkg); len(held) == 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines in %s with every connection idle; the first:\n%s", len(held), pkg, held[0])
					}
				}
			}
		})
	}
}
