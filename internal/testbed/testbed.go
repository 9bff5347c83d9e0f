// Package testbed assembles complete Bento deployments for tests,
// examples, and the experiment harness: an emulated network, a directory
// authority, relays (some running Bento servers with the standard function
// API), an attestation service, and an optional web farm.
package testbed

import (
	"fmt"
	"time"

	"github.com/bento-nfv/bento/internal/bento"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/enclave"
	"github.com/bento-nfv/bento/internal/fleet"
	"github.com/bento-nfv/bento/internal/functions"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/torclient"
	"github.com/bento-nfv/bento/internal/webfarm"
)

// Config describes a deployment.
type Config struct {
	// Relays is the total relay count (default 6).
	Relays int
	// BentoNodes is how many relays also run Bento servers (default 2).
	BentoNodes int
	// Families, when nonzero, groups relays into this many operator
	// families round-robin (relay i declares family "fam<i mod Families>").
	// Zero leaves families undeclared, so every relay is its own fault
	// domain. The fleet controller's anti-affinity placement spreads
	// replicas across distinct families.
	Families int
	// Sites are served from dedicated web hosts named by their domains.
	Sites []*webfarm.Site
	// ClockScale maps virtual to real time (default 0.0005 = 2000x).
	// Ignored when EventClock is set.
	ClockScale float64
	// EventClock runs the deployment on the discrete-event clock:
	// virtual time advances event-to-event instead of at a scaled real
	// rate, so idle stretches are free and timing is load-independent.
	EventClock bool
	// LinkDelay is the default one-way propagation delay (default 2ms).
	LinkDelay time.Duration
	// RelayEgress caps each relay's uplink in bytes per virtual second
	// (0 = unlimited).
	RelayEgress float64
	// BentoEgress, when nonzero, overrides RelayEgress for Bento-hosting
	// relays (the serving bottleneck in the Figure 5 experiment).
	BentoEgress float64
	// WebEgress caps each web host's uplink (0 = unlimited).
	WebEgress float64
	// Quiet silences relay logging (default true via NewQuiet callers).
	Verbose bool
	// Obs, when non-nil, is attached to the network before any component
	// starts, so every layer registers its metrics and spans there. The
	// registry's clock is rebound to the deployment's virtual clock.
	Obs *obs.Registry
	// ObsWindow, when nonzero alongside Obs, starts a rolling-window
	// sampler over the registry on the deployment's virtual clock.
	// World.Windower exposes it for dashboards and autoscalers; Close
	// stops it.
	ObsWindow time.Duration
}

// World is a running deployment.
type World struct {
	Net       *simnet.Network
	Auth      *dirauth.Authority
	Consensus *dirauth.Consensus
	IAS       *enclave.AttestationService
	Relays    []*relay.Relay
	Servers   []*bento.Server
	Web       []*webfarm.Server

	wind      *obs.Windower
	clientSeq int
}

// New builds and starts a deployment.
func New(cfg Config) (*World, error) {
	if cfg.Relays <= 0 {
		cfg.Relays = 6
	}
	if cfg.BentoNodes < 0 || cfg.BentoNodes > cfg.Relays {
		return nil, fmt.Errorf("testbed: BentoNodes %d out of range", cfg.BentoNodes)
	}
	if cfg.ClockScale <= 0 {
		cfg.ClockScale = 0.0005
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = 2 * time.Millisecond
	}

	clock := simnet.NewClock(cfg.ClockScale)
	if cfg.EventClock {
		clock = simnet.NewEventClock()
	}
	n := simnet.NewNetwork(clock, cfg.LinkDelay)
	if cfg.Obs != nil {
		cfg.Obs.SetClock(n.Clock().Now)
		n.SetObs(cfg.Obs)
	}
	auth, err := dirauth.NewAuthority()
	if err != nil {
		return nil, err
	}
	ias, err := enclave.NewAttestationService()
	if err != nil {
		return nil, err
	}
	w := &World{Net: n, Auth: auth, IAS: ias}
	if cfg.Obs != nil && cfg.ObsWindow > 0 {
		// *simnet.Clock satisfies obs.SampleClock structurally, so the
		// sampler ticks in virtual time (on the dispatcher, window
		// callbacks included, under the event clock).
		w.wind = obs.NewWindower(cfg.Obs, obs.WindowConfig{
			Interval: cfg.ObsWindow,
			Clock:    n.Clock(),
		})
	}

	exitPol, err := policy.ParseExitPolicy(
		fmt.Sprintf("accept localhost:%d", bento.Port),
		"accept *:*",
	)
	if err != nil {
		return nil, err
	}

	type bentoHost struct{ host *simnet.Host }
	var bentoHosts []bentoHost
	for i := 0; i < cfg.Relays; i++ {
		name := fmt.Sprintf("relay%d", i)
		egress := cfg.RelayEgress
		if i < cfg.BentoNodes && cfg.BentoEgress != 0 {
			egress = cfg.BentoEgress
		}
		host := n.AddHost(name, egress)
		flags := []string{dirauth.FlagGuard, dirauth.FlagExit, dirauth.FlagHSDir}
		if egress == 0 || (cfg.BentoEgress != 0 && egress > cfg.BentoEgress) {
			flags = append(flags, dirauth.FlagFast)
		}
		rcfg := relay.Config{
			Nickname:   name,
			Flags:      flags,
			ExitPolicy: exitPol,
			Quiet:      !cfg.Verbose,
		}
		if cfg.Families > 0 {
			rcfg.Family = fmt.Sprintf("fam%d", i%cfg.Families)
		}
		if i < cfg.BentoNodes {
			rcfg.Flags = append(rcfg.Flags, dirauth.FlagBento)
			rcfg.Middlebox = policy.DefaultMiddlebox()
			rcfg.BentoAddr = fmt.Sprintf("%s:%d", name, bento.Port)
		}
		r, err := relay.New(host, rcfg)
		if err != nil {
			w.Close()
			return nil, err
		}
		if err := r.ServeHSDir(); err != nil {
			w.Close()
			return nil, err
		}
		d, err := r.Descriptor()
		if err != nil {
			w.Close()
			return nil, err
		}
		if err := auth.Publish(d); err != nil {
			w.Close()
			return nil, err
		}
		w.Relays = append(w.Relays, r)
		if i < cfg.BentoNodes {
			bentoHosts = append(bentoHosts, bentoHost{host: host})
		}
	}

	cons, err := auth.Consensus()
	if err != nil {
		w.Close()
		return nil, err
	}
	w.Consensus = cons

	for i, bh := range bentoHosts {
		platform, err := enclave.NewPlatform(enclave.MinTCBVersion)
		if err != nil {
			w.Close()
			return nil, err
		}
		ias.RegisterPlatform(platform.QuotingKey())
		srv, err := bento.NewServer(bento.ServerConfig{
			Host:       bh.host,
			Tor:        torclient.New(bh.host, cons, int64(9000+i)),
			Policy:     policy.DefaultMiddlebox(),
			ExitPolicy: exitPol,
			Platform:   platform,
			IAS:        ias,
			Bind:       functions.StandardBinder(),
		})
		if err != nil {
			w.Close()
			return nil, err
		}
		w.Servers = append(w.Servers, srv)
	}

	for _, site := range cfg.Sites {
		host := n.AddHost(site.Domain, cfg.WebEgress)
		ws, err := webfarm.Serve(host, site)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.Web = append(w.Web, ws)
	}
	return w, nil
}

// Close tears the deployment down.
func (w *World) Close() {
	// Stop the sampler first so no tick races component teardown.
	w.wind.Close()
	for _, s := range w.Servers {
		s.Close()
	}
	for _, ws := range w.Web {
		ws.Close()
	}
	for _, r := range w.Relays {
		r.Close()
	}
	// Stops the dispatcher goroutine when the deployment runs on the
	// event clock; a no-op for the scaled-real clock.
	w.Net.Clock().Stop()
}

// Clock returns the deployment's virtual clock.
func (w *World) Clock() *simnet.Clock { return w.Net.Clock() }

// Windower returns the rolling-window sampler started when Config set
// both Obs and ObsWindow, or nil (on which every method is a no-op).
func (w *World) Windower() *obs.Windower { return w.wind }

// EnableChaos attaches a seeded fault-injection controller to the
// deployment's network. Call it at most once per deployment.
func (w *World) EnableChaos(seed int64) *simnet.Chaos { return w.Net.EnableChaos(seed) }

// NewTorClient adds a fresh client host and onion proxy.
func (w *World) NewTorClient(name string, seed int64) *torclient.Client {
	w.clientSeq++
	host := w.Net.AddHost(name, 0)
	return torclient.New(host, w.Consensus, seed)
}

// NewBentoClient adds a fresh client host with a Bento client pinned to
// the deployment's IAS.
func (w *World) NewBentoClient(name string, seed int64) *bento.Client {
	return bento.NewClient(w.NewTorClient(name, seed), w.IAS.PublicKey())
}

// NewFleetController adds a fresh client host and starts a fleet
// controller on it, watching the deployment's directory authority for
// relay liveness. Client and Consensus are filled in here when unset; a
// zero Seed means 1.
func (w *World) NewFleetController(name string, cfg fleet.Config) (*fleet.Controller, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Client == nil {
		cfg.Client = w.NewBentoClient(name, cfg.Seed)
	}
	if cfg.Consensus == nil {
		cfg.Consensus = w.Auth.Consensus
	}
	return fleet.New(cfg)
}

// BentoNode returns the i-th Bento-capable relay descriptor.
func (w *World) BentoNode(i int) *dirauth.Descriptor {
	nodes := w.Consensus.BentoNodes()
	if i < 0 || i >= len(nodes) {
		return nil
	}
	return nodes[i]
}
