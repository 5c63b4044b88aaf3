package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// Algorithm-ablation experiments (beyond the paper's figures): for every
// collective with selectable algorithms, force each registered algorithm in
// turn over the full message-size sweep and emit one series per algorithm
// plus a crossover table -- the measured analogue of the MVAPICH2 tuning
// tables the registry's default policy encodes. The variants run on the
// parallel sweep engine (ombrepro -parallel).

// algoAblation describes one per-collective ablation.
type algoAblation struct {
	coll  mpi.Collective
	bench core.Benchmark
	// crossA/crossB name the small- and large-message algorithms of the
	// shipped switch point; paperSwitch is the threshold the default
	// tuning tables encode, in the bytes of the experiment's size axis.
	crossA, crossB string
	paperSwitch    float64
}

func init() {
	d := mpi.DefaultTuning()
	const ranks = 16 // power of two so every registered algorithm is feasible
	cases := []algoAblation{
		{coll: mpi.CollBcast, bench: core.Bcast,
			crossA: "binomial", crossB: "scatter_ring",
			paperSwitch: float64(d.BcastScatterRingMin)},
		{coll: mpi.CollAllreduce, bench: core.Allreduce,
			crossA: "recursive_doubling", crossB: "rabenseifner",
			paperSwitch: float64(d.AllreduceRabenseifnerMin)},
		{coll: mpi.CollAllgather, bench: core.Allgather,
			crossA: "bruck", crossB: "ring",
			// The allgather thresholds bound the total payload; the size
			// axis is the per-rank block.
			paperSwitch: float64(d.AllgatherBruckMaxTotal / ranks)},
		{coll: mpi.CollAlltoall, bench: core.Alltoall,
			crossA: "bruck", crossB: "pairwise",
			paperSwitch: float64(d.AlltoallBruckMaxBlock)},
		{coll: mpi.CollReduceScatter, bench: core.ReduceScatter},
	}
	for _, ac := range cases {
		ac := ac
		register(Experiment{
			ID: "algo_" + string(ac.coll),
			Title: fmt.Sprintf("Algorithm ablation: %s on %d ranks (beyond paper)",
				ac.coll, ranks),
			run: func(d core.Defaults) (*Result, error) { return ac.run(d, ranks) },
		})
	}
}

// run sweeps every registered algorithm of the collective.
func (ac algoAblation) run(d core.Defaults, ranks int) (*Result, error) {
	base := core.Options{
		Benchmark: ac.bench, Mode: core.ModeC, Ranks: ranks, PPN: 1,
		MinSize: 4, MaxSize: 1 << 20, TimingOnly: true,
		Iters: 10, Warmup: 2,
	}
	variants, err := core.AlgorithmVariants(base)
	if err != nil {
		return nil, err
	}
	res, err := runSweep(d, core.Sweep{Base: base, Variants: variants})
	if err != nil {
		return nil, err
	}
	series := res.Series()

	// Crossover table: for every algorithm pair, the smallest size at
	// which the later-registered (large-message) algorithm wins.
	var crosses []string
	for i := 0; i < len(series); i++ {
		for j := i + 1; j < len(series); j++ {
			at := crossoverSize(series[i], series[j])
			if at == 0 {
				crosses = append(crosses,
					fmt.Sprintf("%s never beats %s", series[j].Name, series[i].Name))
				continue
			}
			crosses = append(crosses,
				fmt.Sprintf("%s beats %s from %s", series[j].Name, series[i].Name, stats.HumanBytes(at)))
		}
	}

	var sts []Stat
	if ac.crossA != "" {
		measured := crossoverSize(seriesByName(series, ac.crossA), seriesByName(series, ac.crossB))
		sts = append(sts, Stat{
			Name:     fmt.Sprintf("%s -> %s switch point", ac.crossA, ac.crossB),
			Paper:    ac.paperSwitch, // the shipped tuning-table threshold
			Measured: float64(measured),
			Unit:     "B",
		})
	}
	return &Result{
		ID:    "algo_" + string(ac.coll),
		Title: string(ac.coll) + " algorithm ablation",
		Table: res.Table(string(ac.coll)+" algorithms", "latency(us)"),
		Stats: sts,
		Notes: "crossovers: " + strings.Join(crosses, "; "),
	}, nil
}

// seriesByName finds a series by its variant name.
func seriesByName(series []*stats.Series, name string) *stats.Series {
	for _, s := range series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// crossoverSize returns the smallest size at which b is strictly faster
// than a, or 0 when it never is. Both series cover the same size axis.
func crossoverSize(a, b *stats.Series) int {
	if a == nil || b == nil {
		return 0
	}
	for _, row := range a.Rows {
		other, ok := b.Get(row.Size)
		if !ok {
			continue
		}
		if other.AvgUs < row.AvgUs {
			return row.Size
		}
	}
	return 0
}
