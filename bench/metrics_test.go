package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99}, // one sample beyond p99 of 100
		{hundred, 100, 100},
		{hundred, 1, 1},
		{[]float64{7, 1, 3, 5, 2, 6, 4}, 50, 4},
		{[]float64{7, 1, 3, 5, 2, 6, 4}, 99, 7},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 51, 3},
		{[]float64{42}, 99, 42},
	} {
		if got := nearestRank(tc.xs, tc.p); got != tc.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("nearestRank of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(data, n=4), so printed quartiles can be checked
// against it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}}, // Python extrapolates with two samples
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
