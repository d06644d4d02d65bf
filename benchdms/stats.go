package main

import (
	"math"
	"sort"
	"sync"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of values
// and the number of values it was taken from: the smallest value with at
// least a share p of the values at or below it. An empty input yields NaN.
func percentile(values []float64, p float64) (v float64, n int) {
	n = len(values)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return s[rank], n
}

// median returns the middle value of values, or the mean of the two middle
// values when their count is even. An empty input yields NaN.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// best returns the best of values: the smallest when lower is better,
// else the largest. The host this benchmark runs on slows programs down
// by tens of percent for stretches of tens of seconds, and only ever slows
// them down, so the best of several repeats spread over a run tracks the
// program's own speed more closely than their median does. An empty input
// yields NaN.
func best(values []float64, lowerIsBetter bool) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	b := values[0]
	for _, v := range values[1:] {
		if lowerIsBetter {
			b = min(b, v)
		} else {
			b = max(b, v)
		}
	}
	return b
}

// mean returns the arithmetic mean of values; an empty input yields NaN.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio returns num/den, or 0 when den is 0, for counters that may stay
// idle on a workload.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// recorder collects client-side latencies (ms) per operation from
// concurrent workers.
type recorder struct {
	mu  sync.Mutex
	lat map[string][]float64
}

func newRecorder() *recorder { return &recorder{lat: make(map[string][]float64)} }

func (r *recorder) add(op string, ms float64) {
	r.mu.Lock()
	r.lat[op] = append(r.lat[op], ms)
	r.mu.Unlock()
}

// get returns the latencies recorded for the given ops, pooled.
func (r *recorder) get(ops ...string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, op := range ops {
		out = append(out, r.lat[op]...)
	}
	return out
}
