package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it, so a reported tail is never one outlier.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// segments is how many equal-count pieces a measured phase is cut into.
// The median piece is reported, so one noisy-neighbour stall cannot move a
// rate, and the pieces' range is the run's own estimate of its noise.
const segments = 5

// segmentValues cuts durs (ns per op, in run order) into equal-count
// segments and applies f to each. Fewer samples than segments yield one
// value over the whole run.
func segmentValues(durs []int64, f func(seg []int64) float64) []float64 {
	if len(durs) < segments {
		if len(durs) == 0 {
			return nil
		}
		return []float64{f(durs)}
	}
	per := len(durs) / segments
	out := make([]float64, segments)
	for i := range out {
		out[i] = f(durs[i*per : (i+1)*per])
	}
	return out
}

// rateOf is tasks completed per second of time spent inside operations.
func rateOf(tasksPerOp int) func(seg []int64) float64 {
	return func(seg []int64) float64 {
		var ns int64
		for _, d := range seg {
			ns += d
		}
		return stats.Rate(len(seg)*tasksPerOp, time.Duration(ns))
	}
}

func medianUs(seg []int64) float64 {
	return float64(percentile(sortedCopy(seg), 50)) / 1e3
}

// relRange is (max-min)/median of v: the in-run spread -compare uses to
// tell "regressed" from "unresolved".
func relRange(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}
