package main

import (
	"encoding/json"
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a report may name, lowest first,
// as the share of samples beyond each (one in ten for p90).
var tailLadder = []struct {
	q      float64
	beyond int // one sample in this many lies beyond q
}{{0.90, 10}, {0.95, 20}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// highestPercentile picks the highest rung of tailLadder that still has
// at least ten samples beyond it, so the tail figure is never one or two
// outliers. ok is false when even p90 has fewer than ten beyond it.
func highestPercentile(n int) (q float64, ok bool) {
	for _, rung := range tailLadder {
		if n >= 10*rung.beyond {
			q, ok = rung.q, true
		}
	}
	return q, ok
}

// medianOfSlices cuts the window [0, windowNs) into k equal slices,
// counts the ops that completed in each (ends are completion offsets in
// ns) and returns the median slice rate in ops per second. One slice
// disturbed by a collection or a neighbour on the box does not move it.
func medianOfSlices(ends []int64, windowNs int64, k int) float64 {
	if k <= 0 || windowNs <= 0 {
		return 0
	}
	counts := make([]float64, k)
	for _, e := range ends {
		if e < 0 || e >= windowNs {
			continue
		}
		counts[e*int64(k)/windowNs]++
	}
	perSlice := float64(windowNs) / float64(k) / 1e9
	for i := range counts {
		counts[i] /= perSlice
	}
	return median(counts)
}

// quartiles returns Q1, median, Q3 by the exclusive method Python's
// statistics.quantiles(values, n=4) uses, which the driver applies.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// bound is how much worse a metric may get before it is a regression:
// Rel is a share of the parent's median, Abs an absolute floor under it
// (setup_s: max(25%, 0.05 s); failed_share: +0.001 absolute, Rel 0).
type bound struct {
	Rel float64
	Abs float64
}

// allowance is the absolute worsening the bound permits from parent.
func (b bound) allowance(parent float64) float64 {
	return math.Max(b.Rel*math.Abs(parent), b.Abs)
}

// verdict of one (metric, workload) comparison.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWithin     verdict = "within bound"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
	verdictUnmeasured verdict = "unmeasured"
)

// judge compares the runs of a change against the runs of its parent.
// Worse means the change's median is beyond the bound. A spread wider
// than the bound on either side makes the pair unresolved, unless every
// run of the change reads better than every run of the parent.
func judge(parent, change []float64, higherIsBetter bool, b bound) verdict {
	if len(parent) == 0 || len(change) == 0 {
		return verdictUnmeasured
	}
	sign := 1.0 // worsening = value going up
	if higherIsBetter {
		sign = -1
	}
	pm, cm := median(parent), median(change)
	allow := b.allowance(pm)
	worsening := sign * (cm - pm)

	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				allBetter = false
			}
		}
	}
	if allBetter {
		return verdictBetter
	}
	iqr := func(v []float64) float64 {
		q1, _, q3 := quartiles(v)
		return math.Abs(q3 - q1)
	}
	if iqr(parent) > allow || iqr(change) > allow {
		return verdictUnresolved
	}
	switch {
	case worsening > allow:
		return verdictWorse
	case worsening < -allow:
		return verdictBetter
	}
	return verdictWithin
}

// measured is a metric value that may be absent: a figure this box
// cannot produce (multi-core scaling on fewer than four cores) is
// written as null with a note, never as a ratio that looks like a
// result.
type measured struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	Note  string   `json:"note,omitempty"`
}

func value(v float64, unit string) measured { return measured{Value: &v, Unit: unit} }

func unmeasured(unit, why string) measured {
	return measured{Unit: unit, Note: "unmeasured: " + why}
}

// MarshalJSON keeps every digit measured; NaN and Inf become null.
func (m measured) MarshalJSON() ([]byte, error) {
	type plain measured
	if m.Value != nil && (math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0)) {
		m.Value = nil
		if m.Note == "" {
			m.Note = "unmeasured: not a number"
		}
	}
	return json.Marshal(plain(m))
}
