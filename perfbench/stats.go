package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest value with at least p of the samples at or below it. It sorts a
// copy, so xs is left as it was. An empty sample has no percentile (NaN).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geometricLadder returns the fixed rate ladder from lo up to at most hi, each
// rung step times the one below it.
func geometricLadder(lo, hi, step float64) []float64 {
	var out []float64
	for r := lo; r <= hi*(1+1e-9); r *= step {
		out = append(out, r)
	}
	return out
}

// kneeSearch returns the index of the highest rung of ladder at which probe
// passes, found by bisection, which assumes pass/fail is monotone in rate;
// -1 when even the lowest rung fails. probe runs once per rung tried.
func kneeSearch(ladder []float64, probe func(rate float64) bool) int {
	lo, hi := -1, len(ladder)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(ladder[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// interval is a closed time span in tracer nanoseconds.
type interval struct{ start, end int64 }

// coveredNS returns how much of [lo, hi] the union of spans covers.
func coveredNS(lo, hi int64, spans []interval) int64 {
	clipped := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.start < lo {
			s.start = lo
		}
		if s.end > hi {
			s.end = hi
		}
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	return unionNS(clipped)
}

// unionNS returns the total length of the union of spans.
func unionNS(spans []interval) int64 {
	s := append([]interval(nil), spans...)
	sort.Slice(s, func(a, b int) bool { return s[a].start < s[b].start })
	var total, curStart, curEnd int64
	open := false
	for _, iv := range s {
		if open && iv.start <= curEnd {
			if iv.end > curEnd {
				curEnd = iv.end
			}
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = iv.start, iv.end, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}
