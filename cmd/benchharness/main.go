// Command benchharness regenerates every table and figure from the
// paper's evaluation, plus the ablations DESIGN.md calls out.
//
// Usage:
//
//	benchharness -exp all            # quick versions of everything
//	benchharness -exp table1 -full   # paper-scale Table 1 (slow)
//	benchharness -exp figure5
//
// Experiments: table1, table2, figure5, chaos, fleet, autoscale,
// scalability, scale, ablations, all. The chaos experiment measures
// throughput retained under injected faults (link loss, a relay crash, a
// Bento node outage, a killed function) relative to a fault-free
// baseline. The fleet experiment puts a 3-replica fleet under the
// declarative fleet controller, kills a relay, partitions another, and
// crash-loops a third replica, measuring virtual time-to-reconverge per
// fault and the client-visible success rate (target: zero errors while
// the fleet reports converged); it writes BENCH_fleet.json. -stats
// attaches a registry to the chaos, fleet and autoscale experiments and
// dumps its dashboard at exit. Performance — the cell datapath, telemetry
// overhead, the bscript VM — is measured by the repo benchmark,
// benchmark/, with paired runs and per-metric bounds. The scale
// experiment runs on the discrete-event clock: it registers a six-figure
// client host count (100k with -full) beside a real relay fleet, churns every
// client through a genuine CREATE handshake plus a cover-traffic pump,
// and writes emulator throughput, virtual circuit-build percentiles,
// and steady-state memory per simulated host to BENCH_scale.json;
// -maxhostbytes turns the memory figure into a hard gate. The autoscale
// experiment closes the telemetry→control loop: a fleet under the
// obs-driven autoscaler takes a 3x traffic ramp plus a mid-ramp relay
// crash, and the run fails unless capacity follows demand without
// thrashing (scale-up within ~1.5 windows, zero app-visible errors, at
// most one oscillation under chaos, back at the floor after the tail);
// it writes the replica/latency timeline to BENCH_autoscale.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"github.com/bento-nfv/bento/internal/bench"
	"github.com/bento-nfv/bento/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|figure5|chaos|fleet|autoscale|scalability|scale|ablations|all")
	full := flag.Bool("full", false, "run paper-scale parameters (slow)")
	seed := flag.Int64("seed", 1, "base random seed")
	fleetOut := flag.String("fleetout", "BENCH_fleet.json", "path for the fleet reconciliation experiment's machine-readable result")
	autoscaleOut := flag.String("autoscaleout", "BENCH_autoscale.json", "path for the fleet autoscaling experiment's machine-readable result")
	scaleOut := flag.String("scaleout", "BENCH_scale.json", "path for the scale experiment's machine-readable result")
	scaleClients := flag.Int("scaleclients", 0, "override the scale experiment's client count (0 = experiment default)")
	stats := flag.Bool("stats", false, "attach a telemetry registry to the chaos, fleet and autoscale experiments and dump its dashboard at exit")
	maxHostBytes := flag.Float64("maxhostbytes", 0, "fail the scale experiment if steady-state memory per simulated host exceeds this many bytes")
	minEventsPerSec := flag.Float64("mineventspersec", 0, "fail the scale experiment if the dispatcher's wall-clock event rate lands below this floor")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var statsReg *obs.Registry
	if *stats {
		statsReg = obs.NewRegistry()
	}

	ran := false
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		fmt.Printf("=== %s ===\n", name)
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", name, time.Since(start).Seconds())
	}

	run("table1", func() error {
		cfg := bench.Table1Config{
			Sites: 24, Visits: 6, TrainPerSite: 3,
			Paddings: []int{0, 1 << 20, 7 << 20}, Seed: *seed,
		}
		if *full {
			cfg = bench.DefaultTable1Config()
			cfg.Seed = *seed
		}
		res, err := bench.RunTable1(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})

	run("table2", func() error {
		cfg := bench.DefaultTable2Config()
		cfg.Seed = *seed
		if !*full {
			cfg.Trials = 1
		}
		res, err := bench.RunTable2(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})

	run("figure5", func() error {
		cfg := bench.DefaultFigure5Config()
		cfg.Seed = *seed
		cfg.Duration = 3 * time.Minute
		if *full {
			cfg.FileSize = 10 << 20 // the paper's 10 MB file
			cfg.Duration = 20 * time.Minute
			cfg.ClockScale = 0.01
		}
		res, err := bench.RunFigure5(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})

	run("chaos", func() error {
		cfg := bench.DefaultChaosConfig()
		cfg.Seed = *seed
		cfg.Obs = statsReg
		if *full {
			cfg.Clients = 12
			cfg.Ops = 20
			cfg.FileSize = 256 << 10
		}
		res, err := bench.RunChaos(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})

	run("fleet", func() error {
		cfg := bench.DefaultFleetBenchConfig()
		cfg.Seed = *seed
		cfg.Obs = statsReg
		if *full {
			cfg.Clients = 12
			cfg.FileSize = 64 << 10
			cfg.Tail = 10 * time.Second
		}
		res, err := bench.RunFleetBench(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res)
		if err := res.WriteJSONFile(*fleetOut); err != nil {
			return err
		}
		fmt.Printf("(wrote %s)\n", *fleetOut)
		return nil
	})

	run("autoscale", func() error {
		cfg := bench.DefaultAutoscaleBenchConfig()
		cfg.Seed = *seed
		cfg.Obs = statsReg
		if *full {
			cfg.Ramp = 60 * time.Second
			cfg.Tail = 60 * time.Second
		}
		res, err := bench.RunAutoscale(cfg)
		if res != nil {
			fmt.Println(res)
			if werr := res.WriteJSONFile(*autoscaleOut); werr != nil && err == nil {
				err = werr
			}
			fmt.Printf("(wrote %s)\n", *autoscaleOut)
		}
		return err
	})

	run("scalability", func() error {
		res, err := bench.RunScalability(bench.DefaultScalabilityConfig())
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})

	run("scale", func() error {
		cfg := bench.DefaultScaleConfig()
		cfg.Seed = *seed
		if !*full && *scaleClients == 0 {
			// Quick mode still exercises the full lifecycle, just with a
			// four-figure host count so `-exp all` stays fast. An explicit
			// -scaleclients keeps the full-size driver pool.
			cfg.Clients = 5_000
			cfg.Drivers = 64
		}
		if *scaleClients > 0 {
			cfg.Clients = *scaleClients
		}
		res, err := bench.RunScale(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res)
		if err := res.WriteJSONFile(*scaleOut); err != nil {
			return err
		}
		fmt.Printf("(wrote %s)\n", *scaleOut)
		if *maxHostBytes > 0 && res.BytesPerHost > *maxHostBytes {
			return fmt.Errorf("memory per host %.0f bytes above ceiling %.0f",
				res.BytesPerHost, *maxHostBytes)
		}
		if *minEventsPerSec > 0 && res.EventsPerSec < *minEventsPerSec {
			return fmt.Errorf("dispatcher rate %.0f events/s below floor %.0f",
				res.EventsPerSec, *minEventsPerSec)
		}
		return nil
	})

	run("ablations", func() error {
		sites, visits := 8, 4
		paddings := []int{0, 256 * 1024, 1 << 20}
		trials := 200
		if *full {
			sites, visits = 20, 8
			paddings = []int{0, 256 * 1024, 1 << 20, 2 << 20, 7 << 20}
			trials = 1000
		}
		pad, err := bench.RunPaddingAblation(sites, visits, paddings, *seed)
		if err != nil {
			return err
		}
		fmt.Println(pad)
		conclave, err := bench.RunConclaveAblation(5, *seed)
		if err != nil {
			return err
		}
		fmt.Println(conclave)
		shard, err := bench.RunShardAblation(trials, *seed)
		if err != nil {
			return err
		}
		fmt.Println(shard)
		fair, err := bench.RunFairnessAblation([]int{2, 4, 8, 13}, *seed)
		if err != nil {
			return err
		}
		fmt.Println(fair)
		multi, err := bench.RunMultipathAblation([]int{1, 2, 4}, *seed)
		if err != nil {
			return err
		}
		fmt.Println(multi)
		cover, err := bench.RunCoverAblation(*seed)
		if err != nil {
			return err
		}
		fmt.Println(cover)
		return nil
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; want table1|table2|figure5|chaos|fleet|autoscale|scalability|scale|ablations|all\n", *exp)
		os.Exit(2)
	}
	if statsReg != nil {
		fmt.Println("=== telemetry dashboard ===")
		fmt.Println(statsReg.Snapshot().Dashboard())
	}
}
