package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one benchmark-side interval around a call into a layer of the
// program. Spans of one op share Op; Parent is the index, in the same
// recorder, of the span that was open when this one began (-1 = root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps the spans of one goroutine in memory. A nil recorder is
// the untraced configuration: begin and end cost one nil check, so the
// same sut.go code runs in both passes. Workloads with several driving
// goroutines give each its own recorder and merge at the end.
type recorder struct {
	epoch time.Time
	spans []span
	open  int32 // index of the innermost open span, -1 when none
	op    int64
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, open: -1}
}

// startOp sets the op identifier stamped on the spans that follow.
func (r *recorder) startOp(op int64) {
	if r != nil {
		r.op = op
	}
}

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{
		Name:   name,
		Start:  int64(time.Since(r.epoch)),
		Parent: r.open,
		Op:     r.op,
	})
	r.open = idx
	return idx
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(idx int32) {
	if r == nil {
		return
	}
	r.spans[idx].End = int64(time.Since(r.epoch))
	r.open = r.spans[idx].Parent
}

// spanStat summarises every span of one name in a trace.
type spanStat struct {
	Count  int     `json:"count"`
	P50Ns  float64 `json:"p50_ns"`  // median duration
	SelfNs float64 `json:"self_ns"` // total self time: duration minus children
}

// spanStats computes, per span name, the count, the median duration and
// the summed self time (a span's duration minus the part of it its
// direct children cover; children of one goroutine never overlap).
func spanStats(spans []span) map[string]spanStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	self := map[string]float64{}
	for i, s := range spans {
		d := s.End - s.Start
		durs[s.Name] = append(durs[s.Name], float64(d))
		self[s.Name] += float64(d - child[i])
	}
	out := make(map[string]spanStat, len(durs))
	for name, ds := range durs {
		sort.Float64s(ds)
		out[name] = spanStat{Count: len(ds), P50Ns: percentile(ds, 0.5), SelfNs: self[name]}
	}
	return out
}

// mergeSpans concatenates per-goroutine recorders, rebasing parent links.
func mergeSpans(recs []*recorder) []span {
	var all []span
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := int32(len(all))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// writeSpans dumps a trace as JSON, one object per workload.
func writeSpans(path string, traces map[string][]span) error {
	blob, err := json.Marshal(traces)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
