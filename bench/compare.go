package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a comparison, for one (workload, metric) pair.
const (
	regression  = "regression"
	improvement = "improvement"
	withinBound = "within bound"
	unresolved  = "unresolved"
)

// comparison is the verdict on one metric of one workload: base a,
// change b.
type comparison struct {
	verdict string
	delta   float64 // relative change of the median; positive is worse
	spread  float64 // the wider interquartile spread of the two sides
	wins    float64 // share of (a, b) sample pairs in which b is better
}

// compareMetric judges the per-repetition samples of two runs:
//   - the pair is unresolved when either side's interquartile spread is
//     wider than the metric's bound, unless every sample of one side beats
//     every sample of the other;
//   - otherwise it is a regression when the median worsened by more than
//     the bound;
//   - an improvement when the change wins at least 90% of sample pairs
//     (ties count for neither) and its median is better by more than the
//     base's own spread;
//   - and within bound otherwise.
func compareMetric(m metric, a, b summary) comparison {
	sign := 1.0 // lower is better
	if m.Better == "higher" {
		sign = -1
	}
	if len(a.Samples) == 0 || len(b.Samples) == 0 || a.Median == 0 {
		return comparison{verdict: unresolved}
	}
	var wins, losses int
	for _, x := range a.Samples {
		for _, y := range b.Samples {
			switch d := sign * (y - x); {
			case d < 0:
				wins++
			case d > 0:
				losses++
			}
		}
	}
	pairs := float64(len(a.Samples) * len(b.Samples))
	c := comparison{
		delta:  sign * (b.Median - a.Median) / math.Abs(a.Median),
		spread: math.Max(a.spread(), b.spread()),
		wins:   float64(wins) / pairs,
	}
	separated := wins == len(a.Samples)*len(b.Samples) || losses == len(a.Samples)*len(b.Samples)
	switch {
	case c.spread > m.Bound && !separated:
		c.verdict = unresolved
	case c.delta > m.Bound:
		c.verdict = regression
	case c.delta < 0 && -c.delta > a.spread() && c.wins >= 0.9:
		c.verdict = improvement
	default:
		c.verdict = withinBound
	}
	return c
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints a verdict for every end-to-end metric of every
// workload present in both result files, base first, and the host
// reference drift between them.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (seed %d, %ds per workload)\nB = %s (seed %d, %ds per workload)\n",
		basePath, base.Seed, base.Seconds, changePath, change.Seed, change.Seconds)
	fmt.Fprintf(w, "%-10s %-12s %-5s %6s %11s %21s %11s %21s %8s %7s %7s  %s\n",
		"workload", "metric", "unit", "bound", "A median", "A p25..p75 (n)", "B median", "B p25..p75 (n)",
		"delta", "spread", "B wins", "verdict")
	for _, a := range base.Workloads {
		var b *workloadReport
		for i := range change.Workloads {
			if change.Workloads[i].Name == a.Name {
				b = &change.Workloads[i]
			}
		}
		if b == nil {
			fmt.Fprintf(w, "%-10s only in A\n", a.Name)
			continue
		}
		for _, m := range endToEnd {
			sa, sb := a.EndToEnd[m.Name], b.EndToEnd[m.Name]
			c := compareMetric(m, sa, sb)
			fmt.Fprintf(w, "%-10s %-12s %-5s %5.0f%% %11.5g %21s %11.5g %21s %+7.1f%% %6.1f%% %6.0f%%  %s\n",
				a.Name, m.Name, m.Unit, 100*m.Bound, sa.Median, quartileText(sa), sb.Median, quartileText(sb),
				100*c.delta, 100*c.spread, 100*c.wins, c.verdict)
		}
		failures := withinBound
		if b.Failed > a.Failed {
			failures = regression
		}
		fmt.Fprintf(w, "%-10s %-12s A %d/%d failed, B %d/%d failed  %s\n",
			a.Name, "failures", a.Failed, a.Attempted, b.Failed, b.Attempted, failures)
		fmt.Fprintf(w, "%-10s %-12s A %.1f ms, B %.1f ms: host drift %+.1f%% (context only)\n",
			a.Name, "host.ref_ms", a.HostRefMs.Median, b.HostRefMs.Median,
			100*(b.HostRefMs.Median/a.HostRefMs.Median-1))
	}
	return nil
}

func quartileText(s summary) string {
	return fmt.Sprintf("%.5g..%.5g (%d)", s.P25, s.P75, s.N)
}
