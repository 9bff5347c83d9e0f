package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile mirrors BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// failedShareBound is absolute: one more failed op in a thousand is a
// regression whatever the parent's share was, including zero.
var failedShareBound = bound{Abs: 0.001}

// gatedMetrics returns the end-to-end metrics with the bounds
// BENCHMARK.json gives them, falling back to the built-in table when
// the file is not there to read.
func gatedMetrics(benchmarkJSON string) ([]metricSpec, error) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if os.IsNotExist(err) {
		return endToEndSpecs, nil
	}
	if err != nil {
		return nil, err
	}
	var specs []metricSpec
	for _, m := range bf.EndToEnd {
		s := metricSpec{Name: m.Name, Unit: m.Unit, Higher: m.Better == "higher"}
		if m.Bound != nil {
			s.Bound = bound{Rel: *m.Bound}
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// compareRow is the verdict on one (metric, workload) pair.
type compareRow struct {
	Workload string
	Metric   string
	Unit     string
	Parent   float64 // medians
	Change   float64
	Verdict  verdict
}

// compareReports judges every (end-to-end metric, workload) pair of
// change against parent, failed_share included.
func compareReports(parent, change *report, specs []metricSpec) []compareRow {
	var rows []compareRow
	for _, pw := range parent.Workloads {
		var cw *workloadReport
		for _, w := range change.Workloads {
			if w.Name == pw.Name {
				cw = w
			}
		}
		for _, s := range specs {
			row := compareRow{Workload: pw.Name, Metric: s.Name, Unit: s.Unit, Verdict: verdictUnmeasured}
			if cw != nil {
				pv, cv := pw.values(s.Name), cw.values(s.Name)
				row.Parent, row.Change = median(pv), median(cv)
				row.Verdict = judge(pv, cv, s.Higher, s.Bound)
			}
			rows = append(rows, row)
		}
		row := compareRow{Workload: pw.Name, Metric: "failed_share", Unit: "ratio", Verdict: verdictUnmeasured}
		if cw != nil {
			row.Parent, row.Change = pw.failedShare(), cw.failedShare()
			row.Verdict = judge([]float64{row.Parent}, []float64{row.Change}, false, failedShareBound)
		}
		rows = append(rows, row)
	}
	return rows
}

// printComparison writes one row per pair and returns how many are worse.
func printComparison(out io.Writer, rows []compareRow) (worse int) {
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %8s  %s\n", "workload", "metric", "parent", "change", "delta", "verdict")
	for _, r := range rows {
		delta := "n/a"
		if r.Parent != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.Change-r.Parent)/r.Parent)
		}
		fmt.Fprintf(out, "%-16s %-16s %14.4f %14.4f %8s  %s\n", r.Workload, r.Metric, r.Parent, r.Change, delta, r.Verdict)
		if r.Verdict == verdictWorse {
			worse++
		}
	}
	return worse
}
