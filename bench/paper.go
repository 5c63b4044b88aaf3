package main

import (
	"encoding/json"
	"time"

	"repro/internal/experiments"
)

// paperExperiments is the paper workload: every experiment `ombrepro -all`
// runs that takes under a second on its own, except table2, which exits 1.
// README "Inputs excluded from the workloads" lists the others with their
// measured cost; a repetition of all 45 would take ~30 s, too long to
// repeat within a run.
var paperExperiments = []string{
	"algo_bcast", "algo_allreduce", "algo_allgather", "algo_alltoall", "algo_reduce_scatter",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig12", "fig16", "fig26", "fig27",
	"fig20", "fig21", "fig22", "fig24", "fig34",
	"algo_noise", "algo_overlap",
	"fig30", "fig31", "fig32",
	"table1",
}

// paperInputs permutes the experiments, except that fig31, which holds
// by far the largest heap, always runs first: after a seed-drawn set of
// other experiments its peak depended on their garbage, and the peak RSS
// of runs of different seeds spread by 19%. The digest does not depend on
// the order.
func paperInputs(seed uint64) input {
	ids := []string{"fig31"}
	for _, id := range paperExperiments {
		if id != "fig31" {
			ids = append(ids, id)
		}
	}
	shuffle(newRNG(seed, "paper"), ids[1:])
	return input{Workload: "paper", Experiments: ids}
}

// runPaper runs each experiment and renders it, as ombrepro does. An op is
// one experiment; its outputs are the rendered text and the series JSON.
func runPaper(in *input, r *rec) error {
	if err := r.start(); err != nil {
		return err
	}
	for _, id := range in.Experiments {
		begin := time.Now()
		out, err := runExperiment(id)
		r.op("experiment", id, 1, begin, err)
		if err == nil {
			r.output(id, out)
		}
	}
	r.stop()
	return nil
}

func runExperiment(id string) ([]byte, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	res, err := e.Run()
	if err != nil {
		return nil, err
	}
	series, err := json.Marshal(res.Table)
	if err != nil {
		return nil, err
	}
	return append([]byte(res.Render()), series...), nil
}
