package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail estimated from fewer points is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted. ok
// is false when fewer than minBeyond samples lie beyond it: the value is
// then not a reportable tail.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	return sorted[rank(n, p)], supports(n, p)
}

// rank is the index of the nearest-rank p-quantile among n samples.
func rank(n int, p float64) int {
	return max(int(math.Ceil(p*float64(n)))-1, 0)
}

// supports reports whether n samples hold minBeyond beyond the
// p-quantile.
func supports(n int, p float64) bool {
	return n > 0 && n-(rank(n, p)+1) >= minBeyond
}

// sample is one timing distribution: values in the metric's unit.
type sample struct {
	vals   []float64
	sorted bool
}

func (s *sample) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

func (s *sample) n() int { return len(s.vals) }

func (s *sample) pct(p float64) (float64, bool) {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	return percentile(s.vals, p)
}

// median of a small set of repeated measurements (set-up times, probe
// batches). Unlike percentile it has no minimum count: it summarises
// repeats, not a latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// histQuantile estimates the q-quantile of a cumulative-bucket histogram
// delta (bounds ascending, the last bound +Inf) by linear interpolation
// inside the bucket that crosses the rank, as Prometheus does. Returns
// ok false when the histogram is empty or fewer than minBeyond
// observations lie above the rank.
func histQuantile(bounds, cum []float64, q float64) (float64, bool) {
	if len(cum) == 0 {
		return 0, false
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0, false
	}
	ok := total*(1-q) >= minBeyond
	rank := q * total
	lower, prev := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			upper := bounds[i]
			if math.IsInf(upper, 1) {
				return lower, ok
			}
			if c == prev {
				return upper, ok
			}
			return lower + (upper-lower)*(rank-prev)/(c-prev), ok
		}
		lower, prev = bounds[i], c
	}
	return lower, ok
}
