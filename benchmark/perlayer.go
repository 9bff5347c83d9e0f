package main

import (
	"fmt"
	"sort"
	"strings"
)

// perLayerSpecs are the single-layer metrics, named <module>.<metric>.
// Every traced run reports all of them; one a workload does not
// exercise reads 0 there (bento.connect_ms on bulk_upload). They carry
// no bound. README.md says which end-to-end metric each should move.
var perLayerSpecs = []metricSpec{
	// probes: one public function in a loop, workload-independent
	{Name: "otr.handshake_us", Unit: "us"},
	{Name: "otr.onion3_ns", Unit: "ns"},
	{Name: "otr.onion3_peel_ns", Unit: "ns"},
	{Name: "otr.layer_fwd_ns", Unit: "ns"},
	{Name: "otr.batch_fwd_ns", Unit: "ns"},
	{Name: "cell.codec_ns", Unit: "ns"},
	{Name: "cell.allocs_per_cell", Unit: "count"},
	{Name: "cell.batchwriter_ns", Unit: "ns"},
	{Name: "relay.forward_cells_per_s", Unit: "1/s", Higher: true},
	{Name: "simnet.timer_ns", Unit: "ns"},
	{Name: "simnet.conn_chunk_ns", Unit: "ns"},
	{Name: "torclient.build_ms", Unit: "ms"},
	{Name: "torclient.stream_open_ms", Unit: "ms"},
	{Name: "bento.invoke_overhead_us", Unit: "us"},
	{Name: "webfarm.fetch_ms", Unit: "ms"},
	{Name: "dirauth.consensus_ms", Unit: "ms"},
	{Name: "wire.msg_1k_ns", Unit: "ns"},
	{Name: "wire.msg_32k_ns", Unit: "ns"},
	{Name: "sandbox.spawn_us", Unit: "us"},
	{Name: "sandbox.spawn_sgx_us", Unit: "us"},
	{Name: "enclave.attest_us", Unit: "us"},
	{Name: "interp.compile_us", Unit: "us"},
	{Name: "interp.load_us", Unit: "us"},
	{Name: "interp.compute_ns_per_step", Unit: "ns"},
	{Name: "interp.build_ns_per_step", Unit: "ns"},
	{Name: "interp.allocs_per_call", Unit: "count"},
	{Name: "interp.compute_steps_per_call", Unit: "count"},
	{Name: "interp.build_steps_per_call", Unit: "count"},
	{Name: "stdlib.zlib_page_us", Unit: "us"},
	// spans: median duration of the benchmark's own call, traced pass
	{Name: "bento.connect_ms", Unit: "ms"},
	{Name: "bento.spawn_ms", Unit: "ms"},
	{Name: "bento.upload_ms", Unit: "ms"},
	{Name: "bento.invoke_ms", Unit: "ms"},
	{Name: "bento.shutdown_ms", Unit: "ms"},
	{Name: "bento.invoke_compute_ms", Unit: "ms"},
	{Name: "bento.invoke_build_ms", Unit: "ms"},
	{Name: "otr.client_handshake_us", Unit: "us"},
	// counts: obs.Registry deltas over the traced window
	{Name: "otr.handshakes_per_op", Unit: "count"},
	{Name: "relay.cells_forwarded_per_op", Unit: "count"},
	{Name: "relay.cells_back_per_op", Unit: "count"},
	{Name: "cell.flush_cells_mean", Unit: "count", Higher: true},
	{Name: "simnet.chunks_per_cell", Unit: "count"},
	{Name: "simnet.events_per_op", Unit: "count"},
	{Name: "simnet.events_per_s", Unit: "1/s", Higher: true},
	{Name: "simnet.settle_share", Unit: "ratio"},
	{Name: "simnet.settles_elided_share", Unit: "ratio", Higher: true},
	{Name: "simnet.virt_build_p50_ms", Unit: "ms"},
	{Name: "simnet.virt_build_p99_ms", Unit: "ms"},
	{Name: "bento.program_cache_hit_share", Unit: "ratio", Higher: true},
	{Name: "interp.steps_per_op", Unit: "count"},
	// whole process, traced pass
	{Name: "runtime.allocs_per_op", Unit: "count"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio"},
	{Name: "runtime.peak_heap_mb", Unit: "MiB"},
	// the direction and footprint figures that are one workload's own
	{Name: "bulk.cells_per_s", Unit: "1/s", Higher: true},
	{Name: "churn.bytes_per_host", Unit: "B"},
	// tracing cost: untraced against traced throughput in the same run
	{Name: "trace.ops_per_s", Unit: "1/s", Higher: true},
	{Name: "trace.overhead_pct", Unit: "%"},
	// the ledger: us of CPU per op attributed to each layer
	{Name: "ledger.cpu_us_per_op", Unit: "us"},
	{Name: "ledger.otr_handshake_us", Unit: "us"},
	{Name: "ledger.otr_client_onion_us", Unit: "us"},
	{Name: "ledger.otr_relay_layer_us", Unit: "us"},
	{Name: "ledger.cell_framing_us", Unit: "us"},
	{Name: "ledger.simnet_conn_us", Unit: "us"},
	{Name: "ledger.simnet_dispatch_us", Unit: "us"},
	{Name: "ledger.bento_wire_us", Unit: "us"},
	{Name: "ledger.sandbox_spawn_us", Unit: "us"},
	{Name: "ledger.interp_load_us", Unit: "us"},
	{Name: "ledger.interp_exec_us", Unit: "us"},
	{Name: "ledger.stdlib_zlib_us", Unit: "us"},
	{Name: "ledger.runtime_gc_us", Unit: "us"},
	{Name: "ledger.residual_us", Unit: "us"},
	{Name: "ledger.residual_pct", Unit: "%"},
}

// spanMetrics maps a per-layer metric to the span it is the median of.
var spanMetrics = map[string]string{
	"bento.connect_ms":        "bento.connect",
	"bento.spawn_ms":          "bento.spawn",
	"bento.upload_ms":         "bento.upload",
	"bento.invoke_ms":         "bento.invoke",
	"bento.shutdown_ms":       "bento.shutdown",
	"bento.invoke_compute_ms": "bento.invoke_compute",
	"bento.invoke_build_ms":   "bento.invoke_build",
	"otr.client_handshake_us": "otr.client_handshake",
}

// bigReplies is how many 32 KB Bento replies one op of a workload
// carries (the page; build's string); every other message is small.
var bigReplies = map[string]float64{"browser_fetch": 1, "function_invoke": 1}

// zlibPages is how many pages one op compresses in the function and
// inflates again in the client's check: standard-library time that no
// layer of the program owns, named so the residual does not hide it.
var zlibPages = map[string]float64{"browser_fetch": 1}

// ledgerRow attributes part of an op's CPU to one layer: units of work
// per op, from a count, times the cost of one unit, from a probe.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	Units    float64 `json:"units_per_op"`
	UnitName string  `json:"unit"`
	CostNs   float64 `json:"ns_per_unit"`
	Source   string  `json:"cost_from"`
	UsPerOp  float64 `json:"us_per_op"`
	SharePct float64 `json:"share_pct"`
}

// ledger is the outside-in cost ledger of one workload. Rows are
// disjoint layers; Residual is what they leave of CPUUsPerOp, printed
// as it falls, negative when the probes overprice the layers.
type ledger struct {
	Workload    string      `json:"workload"`
	CPUUsPerOp  float64     `json:"cpu_us_per_op"`
	Rows        []ledgerRow `json:"rows"`
	ResidualUs  float64     `json:"residual_us"`
	ResidualPct float64     `json:"residual_pct"`
}

func num(m map[string]measured, name string) float64 {
	if v := m[name].Value; v != nil {
		return *v
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// buildLedger prices the traced pass's counts with the probes' costs.
func buildLedger(tp *pass, probes map[string]measured) ledger {
	ops := float64(tp.ops())
	c := func(name string) float64 { return ratio(float64(tp.Counters[name]), ops) }
	x := func(name string) float64 { return ratio(tp.Extra[name], ops) }
	l := ledger{Workload: tp.Workload, CPUUsPerOp: ratio(tp.CPUNs/1e3, ops)}
	add := func(layer string, units float64, unitName string, costNs float64, source string) {
		us := units * costNs / 1e3
		l.Rows = append(l.Rows, ledgerRow{
			Layer: layer, Units: units, UnitName: unitName, CostNs: costNs, Source: source,
			UsPerOp: us, SharePct: 100 * ratio(us, l.CPUUsPerOp),
		})
	}

	add("otr_handshake", c("relay.circuits_created"), "handshakes",
		num(probes, "otr.handshake_us")*1e3, "otr.handshake_us")

	// Cells the client side sealed or peeled: the Tor client's counters,
	// or for circuit_churn the driver's own (it is the client there).
	sent, recv := c("torclient.cells_sent"), c("torclient.cells_received")
	if tp.Workload == "circuit_churn" {
		sent, recv = x("client_cells_sent"), x("client_cells_recv")
	}
	clientNs := sent*num(probes, "otr.onion3_ns") + recv*num(probes, "otr.onion3_peel_ns")
	add("otr_client_onion", sent+recv, "cells", ratio(clientNs, sent+recv), "otr.onion3_ns, otr.onion3_peel_ns")

	relayCells := c("relay.cells_forwarded") + c("relay.cells_relayed_back") +
		c("relay.cells_recognized") + c("relay.cells_originated")
	add("otr_relay_layer", relayCells, "cells", num(probes, "otr.layer_fwd_ns"), "otr.layer_fwd_ns")
	add("cell_framing", relayCells, "cells",
		num(probes, "cell.codec_ns")+num(probes, "cell.batchwriter_ns"), "cell.codec_ns + cell.batchwriter_ns")
	add("simnet_conn", c("simnet.chunks_sent"), "chunks", num(probes, "simnet.conn_chunk_ns"), "simnet.conn_chunk_ns")
	add("simnet_dispatch", c("simnet.sched_batch_events.sum"), "events", num(probes, "simnet.timer_ns"), "simnet.timer_ns")

	msgs := 2 * (c("bento.spawns") + c("bento.uploads") + c("bento.invokes") + c("bento.shutdowns"))
	big := 0.0
	if msgs > 0 {
		big = bigReplies[tp.Workload]
	}
	wireNs := (msgs-big)*num(probes, "wire.msg_1k_ns") + big*num(probes, "wire.msg_32k_ns")
	add("bento_wire", msgs, "messages", ratio(wireNs, msgs), "wire.msg_1k_ns, wire.msg_32k_ns")

	add("sandbox_spawn", c("bento.spawns"), "spawns", num(probes, "sandbox.spawn_us")*1e3, "sandbox.spawn_us")

	hits, misses := c("bento.program_cache_hits"), c("bento.program_cache_misses")
	loadNs := (hits+misses)*num(probes, "interp.load_us")*1e3 + misses*num(probes, "interp.compile_us")*1e3
	add("interp_load", hits+misses, "uploads", ratio(loadNs, hits+misses), "interp.load_us, interp.compile_us")

	// One VM step, priced as the workload's own mix of the two probe
	// functions: equal calls of each, so weighted by their step counts.
	cs, bs := num(probes, "interp.compute_steps_per_call"), num(probes, "interp.build_steps_per_call")
	stepNs := ratio(cs*num(probes, "interp.compute_ns_per_step")+bs*num(probes, "interp.build_ns_per_step"), cs+bs)
	add("interp_exec", c("interp.steps_per_run.sum"), "steps", stepNs, "interp.compute_ns_per_step, interp.build_ns_per_step")

	add("stdlib_zlib", zlibPages[tp.Workload], "pages", num(probes, "stdlib.zlib_page_us")*1e3, "stdlib.zlib_page_us")
	// The collector's CPU is measured, not priced: the runtime's own
	// account of it over the traced window. The probes allocate next to
	// nothing, so their costs do not already contain it.
	add("runtime_gc", 1, "ops", ratio(tp.GCCPUNs, ops), "/cpu/classes/gc/total")

	sum := 0.0
	for _, r := range l.Rows {
		sum += r.UsPerOp
	}
	l.ResidualUs = l.CPUUsPerOp - sum
	l.ResidualPct = 100 * ratio(l.ResidualUs, l.CPUUsPerOp)
	return l
}

// String renders the ledger; shares plus residual sum to 100%.
func (l ledger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ledger %s: %.1f us CPU per op (traced pass)\n", l.Workload, l.CPUUsPerOp)
	fmt.Fprintf(&b, "  %-18s %12s %-10s %12s %12s %7s\n", "layer", "units/op", "", "ns/unit", "us/op", "share")
	total := 0.0
	for _, r := range l.Rows {
		fmt.Fprintf(&b, "  %-18s %12.2f %-10s %12.1f %12.2f %6.1f%%\n",
			r.Layer, r.Units, r.UnitName, r.CostNs, r.UsPerOp, r.SharePct)
		total += r.SharePct
	}
	fmt.Fprintf(&b, "  %-18s %12s %-10s %12s %12.2f %6.1f%%\n", "residual", "", "", "", l.ResidualUs, l.ResidualPct)
	fmt.Fprintf(&b, "  %-18s %12s %-10s %12s %12.2f %6.1f%%\n", "total", "", "", "", l.CPUUsPerOp, total+l.ResidualPct)
	return b.String()
}

// perLayer assembles every per-layer metric of one workload from its
// traced pass, the untraced pass of the same run, and the probes.
func perLayer(tp, up *pass, probes map[string]measured) (map[string]measured, ledger) {
	out := make(map[string]measured, len(perLayerSpecs))
	for k, v := range probes {
		out[k] = v
	}
	ops := float64(tp.ops())
	c := func(name string) float64 { return float64(tp.Counters[name]) }

	stats := spanStats(tp.Spans)
	for metric, spanName := range spanMetrics {
		unit := metric[strings.LastIndexByte(metric, '_')+1:]
		out[metric] = value(stats[spanName].P50Ns/unitNs[unit], unit)
	}

	wall := float64(tp.WindowNs) / 1e9
	events := c("simnet.sched_batch_events.sum")
	settles, elided := c("simnet.sched_settles"), c("simnet.sched_settles_elided")
	linkCells := c("torclient.cells_sent") + tp.Extra["client_cells_sent"] +
		c("relay.cells_forwarded") + c("relay.cells_relayed_back") + c("relay.cells_originated")
	hits, misses := c("bento.program_cache_hits"), c("bento.program_cache_misses")
	out["otr.handshakes_per_op"] = value(ratio(c("relay.circuits_created"), ops), "count")
	out["relay.cells_forwarded_per_op"] = value(ratio(c("relay.cells_forwarded"), ops), "count")
	out["relay.cells_back_per_op"] = value(ratio(c("relay.cells_relayed_back"), ops), "count")
	out["cell.flush_cells_mean"] = value(ratio(c("relay.flush_cells.sum"), c("relay.flush_cells.count")), "count")
	out["simnet.chunks_per_cell"] = value(ratio(c("simnet.chunks_sent"), linkCells), "count")
	out["simnet.events_per_op"] = value(ratio(events, ops), "count")
	out["simnet.events_per_s"] = value(ratio(events, wall), "1/s")
	out["simnet.settle_share"] = value(ratio(c("simnet.sched_settle_ns.sum")/1e9, wall), "ratio")
	out["simnet.settles_elided_share"] = value(ratio(elided, settles+elided), "ratio")
	out["simnet.virt_build_p50_ms"] = value(tp.Extra["virt_build_p50_ms"], "ms")
	out["simnet.virt_build_p99_ms"] = value(tp.Extra["virt_build_p99_ms"], "ms")
	out["bento.program_cache_hit_share"] = value(ratio(hits, hits+misses), "ratio")
	out["interp.steps_per_op"] = value(ratio(c("interp.steps_per_run.sum"), ops), "count")

	out["runtime.allocs_per_op"] = value(ratio(float64(tp.Mallocs), ops), "count")
	out["runtime.alloc_bytes_per_op"] = value(ratio(float64(tp.AllocBytes), ops), "B")
	out["runtime.gc_cpu_share"] = value(ratio(tp.GCCPUNs, tp.CPUNs), "ratio")
	out["runtime.peak_heap_mb"] = value(float64(up.PeakHeap)/mib, "MiB")

	tracedRate := medianOfSlices(tp.Ends, tp.WindowNs, rateSlices)
	untracedRate := medianOfSlices(up.Ends, up.WindowNs, rateSlices)
	out["bulk.cells_per_s"] = value(untracedRate*up.Extra["cells_per_op"], "1/s")
	out["churn.bytes_per_host"] = value(up.Extra["bytes_per_host"], "B")
	out["trace.ops_per_s"] = value(tracedRate, "1/s")
	out["trace.overhead_pct"] = value(100*ratio(untracedRate-tracedRate, untracedRate), "%")

	l := buildLedger(tp, probes)
	out["ledger.cpu_us_per_op"] = value(l.CPUUsPerOp, "us")
	for _, r := range l.Rows {
		out["ledger."+r.Layer+"_us"] = value(r.UsPerOp, "us")
	}
	out["ledger.residual_us"] = value(l.ResidualUs, "us")
	out["ledger.residual_pct"] = value(l.ResidualPct, "%")
	return out, l
}

// sortedNames returns the metric names of m in a stable order.
func sortedNames(m map[string]measured) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
