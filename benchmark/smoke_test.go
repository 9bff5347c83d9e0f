package main

import (
	"errors"
	"regexp"
	"testing"
	"time"
)

// toy is a pass small enough for tier-1: the point is that sut.go still
// builds against, and runs on, the program's current API.
func toy(name string, traced bool) passConfig {
	return passConfig{Workload: name, Seed: 7, Duration: 150 * time.Millisecond, Traced: traced, SetupOnce: true}
}

// Every workload runs, traced (registry attached, spans recorded, relay
// counters checked against the closed form), with no failed op.
func TestSmokeWorkloads(t *testing.T) {
	for _, spec := range workloads {
		p, err := runPass(toy(spec.Name, true))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if p.Failed != 0 || p.ops() == 0 {
			t.Fatalf("%s: %d ops, %d failed of %d: %s", spec.Name, p.ops(), p.Failed, p.Attempted, p.FirstErr)
		}
		if len(p.Spans) == 0 || len(p.Counters) == 0 {
			t.Errorf("%s: traced pass kept %d spans and %d counters", spec.Name, len(p.Spans), len(p.Counters))
		}
		for name, m := range endToEnd(p) {
			if m.Value == nil || *m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", spec.Name, name, m.Value)
			}
		}
	}
}

// Every probe runs, and with a traced and an untraced pass yields every
// per-layer metric BENCHMARK.json names, and a ledger that adds up.
func TestSmokeProbesAndLedger(t *testing.T) {
	probes, err := probeAll(7, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := num(probes, "cell.allocs_per_cell"); got != 0 {
		t.Errorf("cell codec allocates %v times per cell, want 0", got)
	}
	up, err := runPass(toy("function_invoke", false))
	if err != nil {
		t.Fatal(err)
	}
	tp, err := runPass(toy("function_invoke", true))
	if err != nil {
		t.Fatal(err)
	}
	layers, l := perLayer(tp, up, probes)
	for _, s := range perLayerSpecs {
		if m, ok := layers[s.Name]; !ok || m.Value == nil {
			t.Errorf("per-layer metric %s missing", s.Name)
		}
	}
	sum := l.ResidualPct
	for _, r := range l.Rows {
		sum += r.SharePct
	}
	if !near(sum, 100) {
		t.Errorf("ledger shares plus residual = %v%%, want 100%%", sum)
	}
	if num(layers, "interp.steps_per_op") <= 0 || num(layers, "ledger.interp_exec_us") <= 0 {
		t.Error("function_invoke ledger has no VM steps")
	}
}

// With the generators' expectations corrupted every workload must fail:
// the output checks are live.
func TestCorruptedExpectationFails(t *testing.T) {
	corruptExpected = true
	defer func() { corruptExpected = false }()
	for _, spec := range workloads {
		p, err := runPass(toy(spec.Name, false))
		if err != nil {
			// browser_fetch and the bulk workloads already fail the
			// first, set-up op.
			if !errors.Is(err, errWrongOutput) {
				t.Errorf("%s: failed with %v, want a wrong-output error", spec.Name, err)
			}
			continue
		}
		if p.Failed == 0 {
			t.Errorf("%s: corrupted expectation went unnoticed (%d ops)", spec.Name, p.ops())
		}
	}
}

// BENCHMARK.json, the driver's contract, must say what the code does.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q breaks the contract's limits", w.Name)
		}
	}
	check := func(kind string, got []benchmarkMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			s := want[i]
			better := "lower"
			if s.Higher {
				better = "higher"
			}
			if m.Name != s.Name || m.Unit != s.Unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, s.Name, s.Unit, better)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s %s (%s) breaks the contract's limits", kind, m.Name, m.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != s.Bound.Rel || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %s: bound %v, code %v, must be in (0, 0.25]", kind, m.Name, m.Bound, s.Bound.Rel)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s carries a bound", kind, m.Name)
			}
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings", len(bf.Command))
	}
	check("end_to_end", bf.EndToEnd, endToEndSpecs, true)
	check("per_layer", bf.PerLayer, perLayerSpecs, false)
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 || len(bf.Workloads) > 8 {
		t.Error("BENCHMARK.json exceeds the contract's counts")
	}
}
