package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	lower := metric{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metric{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := []float64{99, 100, 100, 101, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 80, 100, 120, 140}
	for _, tc := range []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"same code", lower, tight, tight, withinBound},
		{"worse beyond the bound", lower, tight, scale(tight, 1.2), regression},
		{"worse within the bound", lower, tight, scale(tight, 1.05), withinBound},
		{"better beyond the spread", lower, tight, scale(tight, 0.9), improvement},
		{"spread wider than the bound", lower, wide, scale(wide, 1.05), unresolved},
		{"wide but every run better", lower, wide, scale(wide, 0.3), improvement},
		{"wide but every run worse", lower, wide, scale(wide, 2.5), regression},
		{"higher is better, dropped", higher, tight, scale(tight, 0.8), regression},
		{"higher is better, rose", higher, tight, scale(tight, 1.2), improvement},
		{"no samples", lower, nil, tight, unresolved},
	} {
		got := compareMetric(tc.m, summarize("s", tc.a), summarize("s", tc.b))
		if got.verdict != tc.want {
			t.Errorf("%s: verdict %q (delta %+.3f, spread %.3f, wins %.2f), want %q",
				tc.name, got.verdict, got.delta, got.spread, got.wins, tc.want)
		}
	}
}
