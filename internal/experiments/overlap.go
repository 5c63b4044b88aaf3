package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Overlap ablation (beyond the paper's figures): the blocking ablations
// measure where Rabenseifner's allreduce starts beating recursive doubling
// on latency (~8 KiB under the calibrated model at 16x1, 4x below the
// shipped 32 KiB threshold — the ROADMAP's crossover-conservatism
// question). This experiment adds the nonblocking axis as a first
// datapoint: at that crossover region, how much communication can injected
// compute hide under each algorithm? A latency-optimal algorithm whose
// rounds serialize behind compute can lose to a nominally slower one that
// front-loads its injection, so overlap is a second dimension any
// re-tuning of the threshold has to weigh.

// overlapCrossover is the measured blocking rd->rabenseifner crossover at
// 16x1 that the sweep brackets.
const overlapCrossover = 8 * 1024

func init() {
	register(Experiment{
		ID:    "algo_overlap",
		Title: "Iallreduce overlap ablation: recursive doubling vs rabenseifner (beyond paper)",
		run:   runAlgoOverlap,
	})
}

func runAlgoOverlap(d core.Defaults) (*Result, error) {
	const ranks = 16
	base := core.Options{
		Benchmark: core.IAllreduce, Mode: core.ModeC, Ranks: ranks, PPN: 1,
		MinSize: overlapCrossover / 4, MaxSize: overlapCrossover * 4,
		TimingOnly: true, Iters: 10, Warmup: 2,
	}
	variants := []core.Variant{
		{Name: "recursive_doubling", Mutate: func(o *core.Options) {
			o.Algorithms = map[string]string{"allreduce": "recursive_doubling"}
		}},
		{Name: "rabenseifner", Mutate: func(o *core.Options) {
			o.Algorithms = map[string]string{"allreduce": "rabenseifner"}
		}},
	}
	res, err := runSweep(d, core.Sweep{Base: base, Variants: variants})
	if err != nil {
		return nil, err
	}

	// Per-size overlap table and the head-to-head at the crossover size.
	var notes []string
	var sts []Stat
	for i, rep := range res.Reports {
		var rows []string
		for _, row := range rep.Series.Rows {
			rows = append(rows, fmt.Sprintf("%s=%.1f%%", stats.HumanBytes(row.Size), row.OverlapPct))
		}
		notes = append(notes, variants[i].Name+" overlap: "+strings.Join(rows, " "))
		if row, ok := rep.Series.Get(overlapCrossover); ok {
			sts = append(sts, Stat{
				Name:     fmt.Sprintf("%s overlap%% at measured crossover (8 KiB)", variants[i].Name),
				Paper:    100, // full communication/computation overlap
				Measured: row.OverlapPct,
				Unit:     "%",
			})
		}
	}
	return &Result{
		ID:    "algo_overlap",
		Title: "iallreduce overlap ablation at the rd->rabenseifner crossover",
		Table: res.Table("iallreduce total time (compute injected)", "latency(us)"),
		Stats: sts,
		Notes: strings.Join(notes, "; "),
	}, nil
}
