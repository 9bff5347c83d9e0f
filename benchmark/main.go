// Command benchmark is the repository's one performance benchmark: five
// closed-loop workloads measured in host time, end-to-end metrics with
// regression bounds, and a traced pass plus layer probes that yield a
// per-layer cost ledger. README.md is the manual.
//
//	go run ./benchmark                                  the whole suite
//	go run ./benchmark -compare a.json b.json           judge two reports
//	go run ./benchmark -selfcheck                       two sets, must agree
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                                    one run, for the driver
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// driverResult is the single JSON line a driver run ends with.
type driverResult struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// errFailedOps is returned when every pass completed but some op
// failed or produced wrong output; the result is still printed.
var errFailedOps = errors.New("ops failed or returned wrong output")

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// pick keeps the metrics the specs name, so a driver run prints exactly
// the set BENCHMARK.json declares.
func pick(all map[string]measured, specs []metricSpec) map[string]measured {
	out := make(map[string]measured, len(specs))
	for _, s := range specs {
		m, ok := all[s.Name]
		if !ok || m.Value == nil {
			m = value(0, s.Unit)
		}
		out[s.Name] = m
	}
	return out
}

// tracedRun does what a traced driver run and the suite's traced stage
// share: an untraced and a traced pass of equal length back to back, so
// the tracing overhead compares like with like. The untraced pass goes
// first: in a fresh process (a driver run) nothing has run before it,
// so its heap figures are clean.
func tracedRun(name string, seed int64, dur time.Duration) (up, tp *pass, err error) {
	up, err = runPass(passConfig{Workload: name, Seed: seed, Duration: dur, SetupOnce: true})
	if err != nil {
		return nil, nil, err
	}
	tp, err = runPass(passConfig{Workload: name, Seed: seed, Duration: dur, SetupOnce: true, Traced: true})
	if err != nil {
		return nil, nil, err
	}
	return up, tp, nil
}

func probeAll(seed int64, minDur time.Duration) (map[string]measured, error) {
	ps, err := newProbeSet(seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	defer ps.close()
	return runProbes(ps, minDur)
}

// driverRun is one run as the driver asks for it. It prints progress to
// stderr and the result line to stdout.
func driverRun(name string, seed int64, dur time.Duration, traced bool, probeDur time.Duration, traceOut string) error {
	if _, ok := findWorkload(name); !ok {
		return fmt.Errorf("no workload %q", name)
	}
	var res driverResult
	if !traced {
		p, err := runPass(passConfig{Workload: name, Seed: seed, Duration: dur})
		if err != nil {
			return err
		}
		res = driverResult{Attempted: p.Attempted, Failed: p.Failed, Metrics: pick(endToEnd(p), endToEndSpecs)}
		if p.FirstErr != "" {
			fmt.Fprintln(os.Stderr, "first failure:", p.FirstErr)
		}
	} else {
		up, tp, err := tracedRun(name, seed, dur/2)
		if err != nil {
			return err
		}
		probes, err := probeAll(seed, probeDur)
		if err != nil {
			return err
		}
		layers, l := perLayer(tp, up, probes)
		fmt.Fprint(os.Stderr, l.String())
		for _, p := range []*pass{up, tp} {
			res.Attempted += p.Attempted
			res.Failed += p.Failed
			if p.FirstErr != "" {
				fmt.Fprintln(os.Stderr, "first failure:", p.FirstErr)
			}
		}
		res.Metrics = pick(layers, perLayerSpecs)
		if traceOut != "" {
			if err := writeSpans(traceOut, map[string][]span{name: tp.Spans}); err != nil {
				return err
			}
		}
	}
	res.Correct = res.Failed == 0
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if !res.Correct {
		return errFailedOps
	}
	return nil
}

// suiteConfig sizes a full run of the suite.
type suiteConfig struct {
	Seed     int64
	Duration time.Duration
	TraceDur time.Duration
	ProbeDur time.Duration
	Runs     int
	Traced   bool // also do the traced stage and the probes
	TraceOut string
}

// runSuite runs every workload Runs times untraced, then (Traced) the
// probes and one traced pass per workload.
func runSuite(cfg suiteConfig, progress io.Writer) (*report, error) {
	r := newReport(cfg.Seed, cfg.Duration, cfg.TraceDur, cfg.ProbeDur, cfg.Runs)
	for run := 0; run < cfg.Runs; run++ {
		for _, spec := range workloads {
			fmt.Fprintf(progress, "run %d/%d: %s (%v)\n", run+1, cfg.Runs, spec.Name, cfg.Duration)
			p, err := runPass(passConfig{Workload: spec.Name, Seed: cfg.Seed + int64(run), Duration: cfg.Duration})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			r.workload(spec.Name).addRun(p)
		}
	}
	if !cfg.Traced {
		return r, nil
	}
	fmt.Fprintf(progress, "probes (%v each)\n", cfg.ProbeDur)
	probes, err := probeAll(cfg.Seed, cfg.ProbeDur)
	if err != nil {
		return nil, err
	}
	r.Probes = probes
	traces := map[string][]span{}
	for _, spec := range workloads {
		fmt.Fprintf(progress, "traced: %s (%v untraced + %v traced)\n", spec.Name, cfg.TraceDur, cfg.TraceDur)
		up, tp, err := tracedRun(spec.Name, cfg.Seed, cfg.TraceDur)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", spec.Name, err)
		}
		layers, l := perLayer(tp, up, probes)
		w := r.workload(spec.Name)
		w.PerLayer, w.Ledger = layers, &l
		w.Spans, w.TracedOps = spanStats(tp.Spans), tp.ops()
		for _, p := range []*pass{up, tp} {
			w.Attempted += p.Attempted
			w.Failed += p.Failed
			if w.FirstErr == "" {
				w.FirstErr = p.FirstErr
			}
		}
		traces[spec.Name] = tp.Spans
	}
	if cfg.TraceOut != "" {
		if err := writeSpans(cfg.TraceOut, traces); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *report) failedOps() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func run() error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "run this one workload and end with a JSON result line (driver mode)")
		seed      = fs.Int64("seed", 1, "drives client seeds, path choice, payload pattern and page bytes")
		secs      = fs.Float64("seconds", 0, "driver mode: seconds one run measures")
		trace     = fs.Int("trace", 0, "driver mode: 1 = traced pass, probes and per-layer metrics instead of end-to-end ones")
		duration  = fs.Float64("duration", 20, "suite: seconds of each timed window (warm-up, traced pass and probes scale with it)")
		runs      = fs.Int("runs", 1, "suite: untraced runs per workload, for medians and spreads")
		out       = fs.String("out", "", "suite: write the report as JSON here")
		traceOut  = fs.String("traceout", "", "write the traced pass's spans as JSON here")
		compare   = fs.Bool("compare", false, "compare two reports: -compare parent.json change.json")
		selfcheck = fs.Bool("selfcheck", false, "run two full sets and fail if they disagree beyond the bounds")
		benchJSON = fs.String("benchmark-json", "BENCHMARK.json", "where -compare and -selfcheck read the bounds")
	)
	fs.BoolVar(&corruptExpected, "corrupt", false, "hand the checks wrong expectations: every workload must fail (shows verification is live)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}

	switch {
	case *workload != "":
		if *secs <= 0 {
			*secs = *duration
		}
		// Probes share a driver run's budget: 0.15 s each keeps the
		// whole traced run near the seconds asked for.
		return driverRun(*workload, *seed, seconds(*secs), *trace == 1, 150*time.Millisecond, *traceOut)

	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two report files: parent.json change.json")
		}
		parent, err := readReport(fs.Arg(0))
		if err != nil {
			return err
		}
		change, err := readReport(fs.Arg(1))
		if err != nil {
			return err
		}
		specs, err := gatedMetrics(*benchJSON)
		if err != nil {
			return err
		}
		if worse := printComparison(os.Stdout, compareReports(parent, change, specs)); worse > 0 {
			return fmt.Errorf("%d (metric, workload) pairs are worse than their bound", worse)
		}
		return nil
	}

	cfg := suiteConfig{
		Seed:     *seed,
		Duration: seconds(*duration),
		TraceDur: seconds(*duration / 4),
		ProbeDur: seconds(*duration / 20),
		Runs:     *runs,
		Traced:   !*selfcheck,
		TraceOut: *traceOut,
	}
	first, err := runSuite(cfg, os.Stderr)
	if err != nil {
		return err
	}
	first.printEndToEnd(os.Stdout)
	first.printPerLayer(os.Stdout)
	if *out != "" {
		if err := first.write(*out); err != nil {
			return err
		}
	}
	failed := first.failedOps()
	if *selfcheck {
		second, err := runSuite(cfg, os.Stderr)
		if err != nil {
			return err
		}
		fmt.Println("\nsecond set")
		second.printEndToEnd(os.Stdout)
		failed += second.failedOps()
		specs, err := gatedMetrics(*benchJSON)
		if err != nil {
			return err
		}
		fmt.Println("\nselfcheck: second set against the first")
		if worse := printComparison(os.Stdout, compareReports(first, second, specs)); worse > 0 {
			return fmt.Errorf("selfcheck: %d (metric, workload) pairs disagree beyond their bound", worse)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d %w", failed, errFailedOps)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
