package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is what one full run of the suite writes with -out and what
// -compare reads back.
type report struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	DurationS  float64 `json:"duration_s"`
	TraceS     float64 `json:"trace_duration_s"`
	ProbeS     float64 `json:"probe_s"`
	Runs       int     `json:"runs"`
	StartedAt  string  `json:"started_at"`

	Workloads []*workloadReport   `json:"workloads"`
	Probes    map[string]measured `json:"probes,omitempty"`
	// Unmeasured lists what this box cannot produce, as null values.
	Unmeasured map[string]measured `json:"unmeasured,omitempty"`
}

// workloadReport holds every run of one workload.
type workloadReport struct {
	Name       string `json:"name"`
	Why        string `json:"why"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// EndToEnd has one entry per untraced run, in run order.
	EndToEnd  []map[string]measured `json:"end_to_end_runs"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	FirstErr  string                `json:"first_error,omitempty"`
	// Samples and Tail describe the last run's latency sample: the
	// highest percentile with at least ten samples beyond it, ungated.
	Samples int      `json:"latency_samples"`
	Tail    *tailRow `json:"latency_tail,omitempty"`

	PerLayer map[string]measured `json:"per_layer,omitempty"`
	// Spans summarises the traced pass by span name; TracedOps is the
	// ops they are spread over.
	Spans     map[string]spanStat `json:"spans,omitempty"`
	TracedOps int                 `json:"traced_ops,omitempty"`
	Ledger    *ledger             `json:"ledger,omitempty"`
}

type tailRow struct {
	Percentile float64 `json:"percentile"`
	Ms         float64 `json:"ms"`
}

// failedShare is failed, refused, timed-out or wrong-output ops over
// attempted ones.
func (w *workloadReport) failedShare() float64 {
	return ratio(float64(w.Failed), float64(w.Attempted))
}

// workloadProcs is the GOMAXPROCS a workload runs at.
func workloadProcs(name string) int {
	if name == "circuit_churn" {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

func newReport(seed int64, dur, traceDur, probeDur time.Duration, runs int) *report {
	r := &report{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		DurationS:  dur.Seconds(),
		TraceS:     traceDur.Seconds(),
		ProbeS:     probeDur.Seconds(),
		Runs:       runs,
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	if r.HostCPUs < 4 {
		r.Unmeasured = map[string]measured{
			"relay.parallel_scaling_4x": unmeasured("ratio",
				fmt.Sprintf("host has %d CPUs; a 4-worker rate needs at least 4", r.HostCPUs)),
		}
	}
	return r
}

// gitCommit names the commit measured, or "unknown" outside a git
// checkout (the driver's copy is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (r *report) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	spec, _ := findWorkload(name)
	w := &workloadReport{Name: name, Why: spec.Why, GOMAXPROCS: workloadProcs(name)}
	r.Workloads = append(r.Workloads, w)
	return w
}

// addRun folds one untraced pass into the report.
func (w *workloadReport) addRun(p *pass) {
	w.EndToEnd = append(w.EndToEnd, endToEnd(p))
	w.Attempted += p.Attempted
	w.Failed += p.Failed
	if w.FirstErr == "" {
		w.FirstErr = p.FirstErr
	}
	w.Samples = len(p.LatNs)
	w.Tail = nil
	if q, ok := highestPercentile(len(p.LatNs)); ok {
		w.Tail = &tailRow{Percentile: q, Ms: percentile(p.LatNs, q) / 1e6}
	}
}

// values returns one end-to-end metric across the workload's runs.
func (w *workloadReport) values(metric string) []float64 {
	var out []float64
	for _, run := range w.EndToEnd {
		if v := run[metric].Value; v != nil {
			out = append(out, *v)
		}
	}
	return out
}

func (r *report) write(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printEndToEnd writes every end-to-end metric of every workload by
// name and unit: the median across runs, and the spread when there is
// more than one run.
func (r *report) printEndToEnd(out io.Writer) {
	fmt.Fprintf(out, "commit %s  %s  host_cpus=%d gomaxprocs=%d  seed=%d  %gs x %d run(s)\n",
		r.Commit, r.GoVersion, r.HostCPUs, r.GOMAXPROCS, r.Seed, r.DurationS, r.Runs)
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "\n%s (gomaxprocs=%d): %s\n", w.Name, w.GOMAXPROCS, w.Why)
		for _, spec := range endToEndSpecs {
			vals := w.values(spec.Name)
			if len(vals) == 0 {
				fmt.Fprintf(out, "  %-16s %14s %-4s\n", spec.Name, "unmeasured", spec.Unit)
				continue
			}
			fmt.Fprintf(out, "  %-16s %14.4f %-4s", spec.Name, median(vals), spec.Unit)
			if len(vals) > 1 {
				fmt.Fprintf(out, "  spread %.1f%% over %d runs", 100*spreadShare(vals), len(vals))
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "  %-16s %14.6f %-4s  (%d failed of %d attempted)\n",
			"failed_share", w.failedShare(), "ratio", w.Failed, w.Attempted)
		if w.FirstErr != "" {
			fmt.Fprintf(out, "  first failure: %s\n", w.FirstErr)
		}
		fmt.Fprintf(out, "  latency samples: %d", w.Samples)
		if w.Tail != nil {
			fmt.Fprintf(out, "; p%g = %.4f ms (highest percentile with >=10 samples beyond it)",
				100*w.Tail.Percentile, w.Tail.Ms)
		}
		fmt.Fprintln(out)
	}
	for name, m := range r.Unmeasured {
		fmt.Fprintf(out, "\n%s: null (%s)\n", name, m.Note)
	}
}

// printPerLayer writes the probes once and, per workload, the spans,
// counts and the ledger.
func (r *report) printPerLayer(out io.Writer) {
	if len(r.Probes) > 0 {
		fmt.Fprintf(out, "\nprobes (>= %gs each, single goroutine)\n", r.ProbeS)
		for _, name := range sortedNames(r.Probes) {
			m := r.Probes[name]
			fmt.Fprintf(out, "  %-32s %14.3f %s\n", name, num(r.Probes, name), m.Unit)
		}
	}
	for _, w := range r.Workloads {
		if w.PerLayer == nil {
			continue
		}
		fmt.Fprintf(out, "\n%s: traced pass (%gs)\n", w.Name, r.TraceS)
		for _, name := range sortedNames(w.PerLayer) {
			if _, isProbe := r.Probes[name]; isProbe || strings.HasPrefix(name, "ledger.") {
				continue
			}
			fmt.Fprintf(out, "  %-32s %14.4f %s\n", name, num(w.PerLayer, name), w.PerLayer[name].Unit)
		}
		fmt.Fprintf(out, "  %-32s %10s %12s %14s\n", "span", "count", "p50 us", "self us/op")
		names := make([]string, 0, len(w.Spans))
		for name := range w.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := w.Spans[name]
			fmt.Fprintf(out, "  %-32s %10d %12.1f %14.2f\n", name, st.Count, st.P50Ns/1e3,
				ratio(st.SelfNs/1e3, float64(w.TracedOps)))
		}
		if w.Ledger != nil {
			fmt.Fprint(out, w.Ledger.String())
		}
	}
}
