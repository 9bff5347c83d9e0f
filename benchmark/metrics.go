package main

// metricSpec describes one named metric: BENCHMARK.json carries the same
// name, unit and direction, and the README explains each.
type metricSpec struct {
	Name   string
	Unit   string
	Higher bool  // true when a higher value is better
	Bound  bound // end-to-end metrics only
}

// endToEndSpecs are the metrics a user of the system would see, each
// reported by every workload. The bounds are wide because this shared
// 2-core box drifts by several percent over minutes (README.md has the
// spreads measured); finer claims need alternating pairs, not the gate.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", false, bound{Rel: 0.25}},
	{"ops_per_s", "1/s", true, bound{Rel: 0.25}},
	{"op_p50_ms", "ms", false, bound{Rel: 0.25}},
	{"op_p95_ms", "ms", false, bound{Rel: 0.25}},
	{"cpu_us_per_op", "us", false, bound{Rel: 0.25}},
	{"live_heap_mb", "MiB", false, bound{Rel: 0.15}},
}

const mib = 1 << 20

// endToEnd turns an untraced pass into the end-to-end metrics.
func endToEnd(p *pass) map[string]measured {
	ops := float64(p.ops())
	out := map[string]measured{
		"setup_s":      value(median(p.SetupS), "s"),
		"ops_per_s":    value(medianOfSlices(p.Ends, p.WindowNs, rateSlices), "1/s"),
		"op_p50_ms":    value(percentile(p.LatNs, 0.50)/1e6, "ms"),
		"op_p95_ms":    value(percentile(p.LatNs, 0.95)/1e6, "ms"),
		"live_heap_mb": value(float64(p.LiveHeap)/mib, "MiB"),
	}
	if ops > 0 {
		out["cpu_us_per_op"] = value(p.CPUNs/1e3/ops, "us")
	} else {
		out["cpu_us_per_op"] = unmeasured("us", "no op completed")
	}
	return out
}
