package main

import (
	"math"
	"sort"
	"strings"
)

// metric is one reported number as BENCHMARK.json declares it. Bound is
// the share of the base median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the four entry points sees. Every one
// is defined on every workload and is never zero; failures are counted in
// the result line's attempted and failed fields instead. README "Bounds"
// gives the measured spreads the bounds come from.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's numbers. Each is reported on every
// workload (zero where the workload does not reach the layer), so none of
// them is a time that only one workload can produce; those times are
// printed in the traced table and kept in the result file instead (see
// README "Reading the traced run").
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layerNames {
		ms = append(ms, metric{Name: l + ".cpu_share", Unit: "share", Better: "lower"})
	}
	return append(ms,
		metric{Name: "mpi.fold.folded", Unit: "count", Better: "higher"},
		metric{Name: "mpi.fold.fallback", Unit: "count", Better: "lower"},
		metric{Name: "mpi.fold.released", Unit: "count", Better: "lower"},
		metric{Name: "mpi.fold.hit_ratio", Unit: "ratio", Better: "higher"},
		metric{Name: "mpi.schedfold.gather_hits", Unit: "count", Better: "higher"},
		metric{Name: "mpi.schedfold.fallbacks", Unit: "count", Better: "lower"},
		metric{Name: "mpi.schedfold.classes_compiled", Unit: "count", Better: "lower"},
		metric{Name: "mpi.schedfold.struct_hits", Unit: "count", Better: "higher"},
		metric{Name: "mpi.cache_overflows", Unit: "count", Better: "lower"},
		metric{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher"},
		metric{Name: "tune.evaluations", Unit: "count", Better: "lower"},
		metric{Name: "tune.memo_hit_ratio", Unit: "ratio", Better: "higher"},
		metric{Name: "tune.eval_share", Unit: "share", Better: "lower"},
		metric{Name: "go.alloc_gb", Unit: "GB", Better: "lower"},
		metric{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
		metric{Name: "host.ref_ms", Unit: "ms", Better: "lower"},
		metric{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	)
}()

// metricByName finds a declared metric.
func metricByName(name string) (metric, bool) {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// unitOf names the unit of any number the benchmark prints: declared
// metrics carry theirs, and the workload-specific traced times are named
// with an _s or _ms element (serve.hit_p50_ms, core.run_s.bcast-4096).
func unitOf(name string) string {
	if m, ok := metricByName(name); ok {
		return m.Unit
	}
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s."):
		return "s"
	}
	return "count"
}

// summary is a sample with its median and quartiles.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize reports xs with the quartiles of Python's
// statistics.quantiles(xs, n=4) (exclusive method), whose middle cut is
// the median, so the numbers can be checked with that common tool.
func summarize(unit string, xs []float64) summary {
	q := quartiles(xs)
	return summary{Unit: unit, Median: q[1], P25: q[0], P75: q[2], N: len(xs), Samples: xs}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.P75 - s.P25) / math.Abs(s.Median)
}

// quartiles returns the three cut points of xs that divide it into four
// groups, interpolating as statistics.quantiles(xs, n=4) does.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// nearestRank returns the p-th percentile of xs by the nearest-rank
// method: the smallest sample with at least p percent of the samples at or
// below it. Unlike an interpolated percentile it is always a measured
// value, and the number of samples beyond it is exact.
func nearestRank(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	// The epsilon keeps p*n/100 from rounding up past an exact integer
	// (99*100/100 must be rank 99, not 100).
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	return s[max(1, min(rank, len(s)))-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
