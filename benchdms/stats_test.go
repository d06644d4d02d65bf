package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRankWithCount(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, unsorted
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.11, 2},
	} {
		got, n := percentile(vals, tc.p)
		if got != tc.want || n != len(vals) {
			t.Errorf("percentile(%v) = %v (n=%d), want %v (n=%d)", tc.p, got, n, tc.want, len(vals))
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if v, n := percentile(nil, 0.5); !math.IsNaN(v) || n != 0 {
		t.Errorf("percentile(empty) = %v (n=%d), want NaN (n=0)", v, n)
	}
	// p99 of 1000 values has exactly ten values above it.
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(1000 - i)
	}
	if v, n := percentile(many, 0.99); v != 990 || n != 1000 {
		t.Errorf("p99 of 1..1000 = %v (n=%d), want 990 (n=1000)", v, n)
	}
}

func TestMedianOverRounds(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{0.3}, 0.3},
		{[]float64{0.9, 0.1, 0.5}, 0.5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1.25, 0.125, 0.125, 0.375, 1.5, 0.125}, 0.25},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(empty) is not NaN")
	}
}

func TestRatioOfIdleCounter(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Errorf("ratio: got %v and %v", ratio(3, 0), ratio(3, 4))
	}
}

func TestBestAndMean(t *testing.T) {
	vals := []float64{3, 1, 4, 1.5}
	if got := best(vals, true); got != 1 {
		t.Errorf("best lower = %v, want 1", got)
	}
	if got := best(vals, false); got != 4 {
		t.Errorf("best higher = %v, want 4", got)
	}
	if got := mean(vals); got != 2.375 {
		t.Errorf("mean = %v, want 2.375", got)
	}
	if !math.IsNaN(best(nil, true)) || !math.IsNaN(mean(nil)) {
		t.Error("best or mean of nothing is not NaN")
	}
}

func TestBestRoundsTakesEachRoundsFastestRepeat(t *testing.T) {
	var reps []*repeat
	for _, lat := range [][]float64{{10, 50, 30}, {12, 40, 35}, {9, 45, 33}} {
		r := &repeat{lat: newRecorder()}
		for _, ms := range lat {
			r.lat.add("warm", ms)
		}
		reps = append(reps, r)
	}
	got := bestRounds(reps, "warm")
	want := []float64{9, 40, 30}
	if len(got) != len(want) {
		t.Fatalf("bestRounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bestRounds = %v, want %v", got, want)
		}
	}
}
