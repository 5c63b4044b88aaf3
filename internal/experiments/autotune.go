package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/tune"
)

// algo_autotune closes the ROADMAP's tuning loop: instead of scanning one
// threshold by hand (algo_crossover_scan), it runs the ALNS/bandit
// auto-tuner over the full collective-selection policy space at the
// paper's sparse (16x1) and fully subscribed (224x56) placements and
// compares the generated tuning table against the shipped MVAPICH2-style
// defaults. The tuner's dominance guard means the generated table must be
// at least as fast on every (placement, collective, size) cell; this
// experiment verifies that end to end and reports where the search
// disagrees with the shipped thresholds.

func init() {
	register(Experiment{
		ID:    "algo_autotune",
		Title: "ALNS auto-tuned selection policy vs shipped defaults (beyond paper)",
		run:   runAutotune,
	})
}

// autotunePlacements are the two regimes the tuning tables must hold in.
var autotunePlacements = []tune.Placement{{Ranks: 16, PPN: 1}, {Ranks: 224, PPN: 56}}

func runAutotune(d core.Defaults) (*Result, error) {
	res, err := tune.Run(context.Background(), tune.Config{
		Seed:       1,
		Iterations: 160,
		Placements: autotunePlacements,
		Workers:    4,
		Defaults:   d,
	})
	if err != nil {
		return nil, err
	}
	prov := res.Provenance

	// The dominance guard is the experiment's contract: fail loudly if any
	// shipped cell regressed rather than quietly reporting it.
	var table stats.Table
	table.Title = "collective suite latency, shipped defaults vs generated table"
	table.Metric = "latency(us)"
	cellsTotal, cellsImproved := 0, 0
	var disagreements []string
	perPlacement := map[string][2]float64{} // placement -> {shipped, tuned}
	for _, pl := range autotunePlacements {
		label := pl.String()
		shipped := &stats.Series{Name: label + " shipped"}
		tuned := &stats.Series{Name: label + " tuned"}
		sums := map[int][2]float64{}
		var totals [2]float64
		for _, cr := range prov.Contexts {
			if cr.Placement != label {
				continue
			}
			for _, cell := range cr.Cells {
				if cell.TunedUs > cell.DefaultUs {
					return nil, fmt.Errorf(
						"algo_autotune: dominance guard violated: %s/%s size %d tuned %.3fus > shipped %.3fus",
						cr.Placement, cr.Collective, cell.Size, cell.TunedUs, cell.DefaultUs)
				}
				cellsTotal++
				if cell.TunedUs < cell.DefaultUs {
					cellsImproved++
				}
				s := sums[cell.Size]
				s[0] += cell.DefaultUs
				s[1] += cell.TunedUs
				sums[cell.Size] = s
			}
			totals[0] += cr.DefaultUs
			totals[1] += cr.TunedUs
			if cr.Source != "default" {
				disagreements = append(disagreements, describeDisagreement(cr))
			}
		}
		sizes := make([]int, 0, len(sums))
		for sz := range sums {
			sizes = append(sizes, sz)
		}
		sort.Ints(sizes)
		for _, sz := range sizes {
			shipped.Rows = append(shipped.Rows, stats.Row{Size: sz, AvgUs: sums[sz][0]})
			tuned.Rows = append(tuned.Rows, stats.Row{Size: sz, AvgUs: sums[sz][1]})
		}
		table.Series = append(table.Series, shipped, tuned)
		perPlacement[label] = totals
	}

	result := &Result{
		ID:    "algo_autotune",
		Title: "ALNS auto-tuned selection policy vs shipped defaults (beyond paper)",
		Table: table,
	}
	// "Paper" here is the shipped MVAPICH2-style default, so ratio <= 1.0
	// is the dominance guarantee made visible.
	for _, pl := range autotunePlacements {
		t := perPlacement[pl.String()]
		result.Stats = append(result.Stats, Stat{
			Name:     pl.String() + " suite latency (shipped -> tuned)",
			Paper:    t[0],
			Measured: t[1],
			Unit:     "us",
		})
	}
	result.Stats = append(result.Stats,
		Stat{Name: "cells at least as fast as shipped", Paper: float64(cellsTotal),
			Measured: float64(cellsTotal), Unit: "cells"},
		Stat{Name: "cells strictly faster than shipped", Paper: float64(cellsTotal),
			Measured: float64(cellsImproved), Unit: "cells"},
	)
	result.Notes = fmt.Sprintf(
		"seed %d, %d iterations, %d probe evaluations (%.0f%% answered by the content-addressed cache); "+
			"overall modeled suite latency %.1fus -> %.1fus (%.2f%% better). The generated table dominates the shipped "+
			"defaults on every cell by construction (the tuner's finalize step falls back per context). Where the search "+
			"disagrees with the shipped policy: %s. Regenerate with: ombtune -seed %d -iters %d; apply with "+
			"ombrepro/ombpy -tuning-table FILE.",
		prov.Seed, prov.Iterations, prov.Evaluations, 100*prov.CacheHitRatio,
		prov.DefaultTotalUs, prov.TunedTotalUs, prov.ImprovementPct,
		strings.Join(disagreements, "; "), prov.Seed, prov.Iterations)
	return result, nil
}

// describeDisagreement summarizes how one tuned context departs from the
// shipped defaults, listing only the thresholds the search actually moved.
func describeDisagreement(cr tune.ContextReport) string {
	// The thresholds are named by mpi.Tuning's JSON form; a Tuning always
	// marshals to a JSON object of ints.
	var shipped map[string]int
	wire, _ := json.Marshal(mpi.DefaultTuning())
	_ = json.Unmarshal(wire, &shipped)
	var parts []string
	names := make([]string, 0, len(cr.Thresholds))
	for name := range cr.Thresholds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := cr.Thresholds[name]; v != shipped[name] {
			parts = append(parts, fmt.Sprintf("%s %d->%d", name, shipped[name], v))
		}
	}
	if cr.Forced != "" {
		parts = append(parts, "forced "+cr.Forced)
	}
	if len(parts) == 0 {
		parts = append(parts, "shipped thresholds, different finalize candidate")
	}
	return fmt.Sprintf("%s %s (%+.1f%%): %s",
		cr.Placement, cr.Collective, -cr.ImprovementPct, strings.Join(parts, ", "))
}
