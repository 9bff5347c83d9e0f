package main

import (
	"fmt"
	"runtime"
	"time"
)

const (
	// probeBatches is how many equal batches a probe's figure is the
	// median of.
	probeBatches = 5
	// probeMaxIters caps calibration for probes whose body is so cheap
	// that doubling would otherwise run away.
	probeMaxIters = 1 << 24
)

// runProbe calibrates iters so that one batch lasts about a fifth of
// minDur, runs probeBatches batches and returns the median time per
// unit of work in ns, and heap allocations per iteration.
func runProbe(s probeSpec, minDur time.Duration) (nsPerUnit, allocsPerIter float64, err error) {
	per := s.Per
	if per <= 0 {
		per = 1
	}
	iters := 1
	for {
		d, err := s.Fn(iters)
		if err != nil {
			return 0, 0, err
		}
		if d >= minDur/probeBatches || iters >= probeMaxIters {
			break
		}
		iters *= 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batches := make([]float64, probeBatches)
	for i := range batches {
		d, err := s.Fn(iters)
		if err != nil {
			return 0, 0, err
		}
		batches[i] = float64(d) / float64(iters) / per
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(iters*probeBatches)
	return median(batches), allocs, nil
}

var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// runProbes runs every probe of the set for at least minDur each and
// returns the per-layer metrics they feed.
func runProbes(ps *probeSet, minDur time.Duration) (map[string]measured, error) {
	out := make(map[string]measured, len(ps.Specs)+2)
	for _, s := range ps.Specs {
		if s.Rate != nil {
			out[s.Name] = value(s.Rate(), s.Unit)
			continue
		}
		ns, allocs, err := runProbe(s, minDur)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", s.Name, err)
		}
		out[s.Name] = value(ns/unitNs[s.Unit], s.Unit)
		if s.PerAs != "" {
			out[s.PerAs] = value(s.Per, "count")
		}
		if s.AllocsAs != "" {
			out[s.AllocsAs] = value(allocs, "count")
		}
	}
	return out, nil
}
