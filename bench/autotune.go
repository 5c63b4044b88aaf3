package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tune"
)

// tuneInput is one ombtune search.
type tuneInput struct {
	Seed       uint64 `json:"seed"`
	Iterations int    `json:"iterations"`
	Placements string `json:"placements"`
	Sizes      []int  `json:"sizes"`
	Workers    int    `json:"workers"`
}

// autotuneInputs is ombtune's default search, seed 1, for every workload
// seed: the search seed decides which probes run, and across seeds 1-10
// the time of one search ranged from 0.68 s to 1.20 s, which would make
// runs of different seeds incomparable. The placements are 16x1 and 64x16
// rather than the algo_autotune experiment's 224x56, where one
// 60-iteration search takes 10-15 s.
func autotuneInputs(uint64) input {
	var sizes []int
	for s := 1 << 10; s <= 256<<10; s <<= 1 {
		sizes = append(sizes, s)
	}
	return input{Workload: "autotune", Tune: &tuneInput{
		Seed: 1, Iterations: 300, Placements: "16x1,64x16", Sizes: sizes, Workers: 1,
	}}
}

// runAutotune runs tune.Run in process through a timing evaluator. An op
// is one probe that ran a simulation; memo hits are spans only. The
// outputs are the table and provenance JSON, and the generated table must
// never lose a cell to the shipped defaults.
func runAutotune(in *input, r *rec) error {
	placements, err := tune.ParsePlacements(in.Tune.Placements)
	if err != nil {
		return err
	}
	ev := &timedEvaluator{inner: tune.NewCoreEvaluator(), r: r}
	cfg := tune.Config{
		Seed: in.Tune.Seed, Iterations: in.Tune.Iterations, Placements: placements,
		Sizes: in.Tune.Sizes, Workers: in.Tune.Workers, Evaluator: ev,
	}
	if err := r.start(); err != nil {
		return err
	}
	res, err := tune.Run(context.Background(), cfg)
	r.stop()
	if err != nil {
		return err
	}
	table, err := res.TableJSON()
	if err != nil {
		return err
	}
	prov, err := res.ProvenanceJSON()
	if err != nil {
		return err
	}
	r.output("table", table)
	r.output("provenance", prov)
	r.check("dominance", dominates(res.Provenance))

	p := res.Provenance
	evalS := ev.total.Seconds()
	r.set("tune.evaluations", float64(p.Evaluations))
	r.set("tune.memo_hit_ratio", p.CacheHitRatio)
	r.set("tune.eval_s", evalS)
	r.set("tune.search_self_s", r.wall.Seconds()-evalS)
	r.set("tune.eval_share", evalS/r.wall.Seconds())
	return nil
}

// dominates checks the tuner's contract: no tuned cell is slower than the
// shipped default.
func dominates(p *tune.Provenance) error {
	for _, c := range p.Contexts {
		for _, cell := range c.Cells {
			if cell.TunedUs > cell.DefaultUs {
				return fmt.Errorf("%s/%s size %d: tuned %.3fus > shipped %.3fus",
					c.Placement, c.Collective, cell.Size, cell.TunedUs, cell.DefaultUs)
			}
		}
	}
	return nil
}

// timedEvaluator wraps the in-process evaluator to time every probe.
type timedEvaluator struct {
	inner *tune.CoreEvaluator
	r     *rec

	mu    sync.Mutex
	total time.Duration
}

func (e *timedEvaluator) Evaluate(ctx context.Context, opts core.Options) (tune.EvalResult, error) {
	begin := time.Now()
	res, err := e.inner.Evaluate(ctx, opts)
	name := fmt.Sprintf("%s %dx%d", opts.Benchmark, opts.Ranks, opts.PPN)
	if err == nil && res.Cached {
		e.r.span("memo", name, 1, begin, time.Now())
	} else {
		e.r.op("probe", name, 1, begin, err)
	}
	e.mu.Lock()
	e.total += time.Since(begin)
	e.mu.Unlock()
	return res, err
}
