// Package tune searches the collective-selection policy space and emits
// generated tuning tables: an adaptive large-neighborhood search (ALNS)
// whose candidate solutions are the runtime's own Policy/Tuning
// structures, with destroy/repair operators over threshold octaves and
// forced overrides, a contextual UCB bandit weighting operator selection
// per (placement, collective), simulated-annealing acceptance, and the
// deterministic event engine as the objective evaluator — in process or
// over HTTP through the ombserve content-addressed cache.
//
// Determinism is a contract, not an accident: all randomness flows
// through the counter-based PRNG discipline of internal/faults, probes
// are bit-identical functions of their options, and the emitted table and
// provenance report are byte-identical for a given (seed, iteration
// budget) across serial vs. parallel evaluation and across evaluator
// backends. A wall-clock budget (Config.Budget) trades that away
// knowingly: it stops the search early at a host-dependent iteration.
package tune

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// Config parameterizes one search. Zero values take the documented
// defaults.
type Config struct {
	// Seed fixes the search trajectory; same seed, same budget ->
	// byte-identical outputs.
	Seed uint64
	// Iterations is the move budget (default 300). Each iteration proposes
	// one mutation in one context, round-robin.
	Iterations int
	// Budget optionally bounds wall-clock time; the search stops early
	// with its best-so-far. Early stops are host-dependent, so a Budget
	// forfeits byte-identity; leave it zero where determinism matters.
	Budget time.Duration
	// Placements are the (ranks, ppn) points to tune (required).
	Placements []Placement
	// Collectives to tune (default: all registered).
	Collectives []mpi.Collective
	// Sizes is the message-size axis of every probe (default: powers of
	// two, 1 KiB to 1 MiB). Sizes must be multiples of 4 so reducing
	// collectives probe cleanly as float32.
	Sizes []int
	// Cluster and Impl select the modeled machine (defaults: the core
	// defaults, frontera / mvapich2).
	Cluster string
	Impl    netmodel.Impl
	// ProbeIters / ProbeWarmup are the per-size iteration counts of each
	// probe (defaults 10 / 2) — small, because the model is deterministic
	// and the averages are exact.
	ProbeIters  int
	ProbeWarmup int
	// Workers bounds parallel probe evaluation in the baseline and
	// finalization batches (default 1). The answer is identical at any
	// worker count.
	Workers int
	// Evaluator answers probes (default: a fresh in-process
	// CoreEvaluator). Use ServeEvaluator to drive an ombserve instance.
	Evaluator Evaluator
	// Defaults are the CLI defaults every probe runs under: probeOptions
	// applies them to the probe's options, and Defaults.Timeout bounds
	// each probe's evaluation.
	Defaults core.Defaults
}

func (cfg Config) withDefaults() Config {
	if cfg.Iterations == 0 {
		cfg.Iterations = 300
	}
	if cfg.Collectives == nil {
		cfg.Collectives = mpi.Collectives()
	}
	if cfg.Sizes == nil {
		for size := 1 << 10; size <= 1<<20; size <<= 1 {
			cfg.Sizes = append(cfg.Sizes, size)
		}
	} else {
		cfg.Sizes = sortedSizes(cfg.Sizes)
	}
	if cfg.ProbeIters == 0 {
		cfg.ProbeIters = 10
	}
	if cfg.ProbeWarmup == 0 {
		cfg.ProbeWarmup = 2
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Evaluator == nil {
		cfg.Evaluator = NewCoreEvaluator()
	}
	return cfg
}

func (cfg Config) validate() error {
	if len(cfg.Placements) == 0 {
		return fmt.Errorf("tune: Config.Placements is required")
	}
	for _, p := range cfg.Placements {
		if p.Ranks < 2 || p.PPN < 1 {
			return fmt.Errorf("tune: bad placement %s", p)
		}
	}
	if cfg.Iterations < 0 {
		return fmt.Errorf("tune: negative iteration budget")
	}
	for _, s := range cfg.Sizes {
		if s <= 0 || s%4 != 0 {
			return fmt.Errorf("tune: probe size %d must be a positive multiple of 4", s)
		}
	}
	return nil
}

// Result is a finished search: the shippable table and its provenance.
type Result struct {
	Table      *mpi.TuningTable
	Provenance *Provenance
}

// TableJSON renders the table in the canonical indented form.
func (r *Result) TableJSON() ([]byte, error) {
	return json.MarshalIndent(r.Table, "", "  ")
}

// ProvenanceJSON renders the provenance report in the canonical indented
// form.
func (r *Result) ProvenanceJSON() ([]byte, error) {
	return json.MarshalIndent(r.Provenance, "", "  ")
}

// search is the mutable state of one run.
type search struct {
	cfg      Config
	eval     Evaluator
	rng      *rng
	contexts []*searchContext
	bandits  []*contextBandit

	cur, best       []gene
	curObj, bestObj []float64
	defaultCells    [][]Cell
	defaultObj      []float64
	temp0           []float64
	evals, hits     int
	executed        int
	traj            []TrajPoint
}

// Run executes one search to completion and returns the generated table
// plus provenance. ctx cancellation aborts with an error; Config.Budget
// expiry stops the search loop early but still finalizes.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	contexts, err := buildContexts(cfg)
	if err != nil {
		return nil, err
	}
	s := &search{cfg: cfg, eval: cfg.Evaluator, rng: newRNG(cfg.Seed), contexts: contexts}
	for ci := range contexts {
		var ops []int
		for oi := range operators {
			if operators[oi].wants(s, ci) {
				ops = append(ops, oi)
			}
		}
		contexts[ci].ops = ops
		s.bandits = append(s.bandits, newContextBandit(ops))
	}

	if err := s.baseline(ctx); err != nil {
		return nil, err
	}
	s.anneal(ctx)
	chosen, chosenCells, sources, err := s.finalize(ctx)
	if err != nil {
		return nil, err
	}
	return s.report(chosen, chosenCells, sources), nil
}

// baseline evaluates the shipped policy in every context: the reference
// cells for the dominance guard, the initial solutions, and the annealing
// temperature scale.
func (s *search) baseline(ctx context.Context) error {
	probes := make([]core.Options, len(s.contexts))
	for ci, c := range s.contexts {
		probes[ci] = c.probeOptions(s.cfg, c.defaultGene())
	}
	results, err := s.evalBatch(ctx, probes)
	if err != nil {
		return fmt.Errorf("tune: baseline: %w", err)
	}
	n := len(s.contexts)
	s.cur = make([]gene, n)
	s.best = make([]gene, n)
	s.curObj = make([]float64, n)
	s.bestObj = make([]float64, n)
	s.defaultCells = make([][]Cell, n)
	s.defaultObj = make([]float64, n)
	s.temp0 = make([]float64, n)
	for ci, c := range s.contexts {
		obj := objective(results[ci].Cells)
		s.defaultCells[ci] = results[ci].Cells
		s.defaultObj[ci] = obj
		s.cur[ci] = c.defaultGene()
		s.best[ci] = c.defaultGene()
		s.curObj[ci] = obj
		s.bestObj[ci] = obj
		s.temp0[ci] = 0.05 * obj
	}
	s.traj = append(s.traj, TrajPoint{Iteration: 0, BestTotalUs: s.totalBest()})
	return nil
}

// anneal is the search loop: round-robin over contexts, bandit-picked
// operator, probe, ALNS reward, simulated-annealing acceptance.
func (s *search) anneal(ctx context.Context) {
	budgetCtx := ctx
	if s.cfg.Budget > 0 {
		var cancel context.CancelFunc
		budgetCtx, cancel = context.WithTimeout(ctx, s.cfg.Budget)
		defer cancel()
	}
	for t := 1; t <= s.cfg.Iterations; t++ {
		if budgetCtx.Err() != nil {
			break
		}
		s.executed = t
		ci := (t - 1) % len(s.contexts)
		b := s.bandits[ci]
		arm := b.pick()
		op := operators[b.opIndex[arm]]
		cand, ok := op.apply(s.rng, s, ci, s.cur[ci].clone())
		if !ok || cand.equal(s.cur[ci]) {
			b.update(arm, rewardRejected, false, false)
			continue
		}
		res, evalErr := s.evaluate(ctx, s.contexts[ci].probeOptions(s.cfg, cand))
		if evalErr != nil {
			// Probes are pure functions of valid options; an error here is
			// environmental (service down, ctx canceled). Stop searching
			// and keep the best found so far; finalize will surface a
			// persistent failure.
			break
		}
		s.evals++
		if res.Cached {
			s.hits++
		}
		obj := objective(res.Cells)
		switch {
		case obj < s.bestObj[ci]:
			s.best[ci] = cand.clone()
			s.bestObj[ci] = obj
			s.cur[ci] = cand
			s.curObj[ci] = obj
			s.traj = append(s.traj, TrajPoint{Iteration: t, BestTotalUs: s.totalBest()})
			b.update(arm, rewardBest, true, true)
		case obj < s.curObj[ci]:
			s.cur[ci] = cand
			s.curObj[ci] = obj
			b.update(arm, rewardImprove, true, true)
		default:
			temp := s.temperature(ci, t)
			if temp > 0 && s.rng.float() < math.Exp(-(obj-s.curObj[ci])/temp) {
				s.cur[ci] = cand
				s.curObj[ci] = obj
				b.update(arm, rewardAccepted, true, false)
			} else {
				b.update(arm, rewardRejected, false, false)
			}
		}
	}
}

// temperature is the geometric cooling schedule: 5% of the context's
// default objective at the start, 1% of that by the last iteration.
func (s *search) temperature(ci, t int) float64 {
	frac := 0.0
	if s.cfg.Iterations > 1 {
		frac = float64(t-1) / float64(s.cfg.Iterations-1)
	}
	return s.temp0[ci] * math.Pow(0.01, frac)
}

// finalize applies the dominance guard: per context, ship the best gene
// only if it is at least as good as the shipped default on EVERY cell,
// else retry without its forced override, else keep the default. The
// guard re-evaluates genes the search already probed, so this phase is
// where a caching evaluator provably hits.
func (s *search) finalize(ctx context.Context) ([]gene, [][]Cell, []string, error) {
	type candidate struct {
		ci     int
		g      gene
		source string
	}
	var cands []candidate
	for ci, c := range s.contexts {
		def := c.defaultGene()
		seen := []gene{}
		add := func(g gene, source string) {
			for _, have := range seen {
				if g.equal(have) {
					return
				}
			}
			seen = append(seen, g)
			cands = append(cands, candidate{ci: ci, g: g, source: source})
		}
		add(s.best[ci], "search")
		if s.best[ci].forced != "" {
			unforced := s.best[ci].clone()
			unforced.forced = ""
			add(unforced, "search_unforced")
		}
		add(def, "default")
	}
	probes := make([]core.Options, len(cands))
	for i, cand := range cands {
		probes[i] = s.contexts[cand.ci].probeOptions(s.cfg, cand.g)
	}
	results, err := s.evalBatch(ctx, probes)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("tune: finalize: %w", err)
	}

	n := len(s.contexts)
	chosen := make([]gene, n)
	cells := make([][]Cell, n)
	sources := make([]string, n)
	for i, cand := range cands {
		ci := cand.ci
		if sources[ci] != "" {
			continue // an earlier (preferred) candidate already won
		}
		if dominates(results[i].Cells, s.defaultCells[ci]) {
			chosen[ci] = cand.g
			cells[ci] = results[i].Cells
			sources[ci] = cand.source
		}
	}
	for ci := range s.contexts {
		if sources[ci] == "" {
			// Unreachable: the default candidate trivially dominates
			// itself. Kept as a hard failure rather than a silent fallback.
			return nil, nil, nil, fmt.Errorf("tune: context %s chose no candidate", s.contexts[ci].name())
		}
	}
	return chosen, cells, sources, nil
}

// dominates reports whether cand is at least as fast as ref on every
// cell.
func dominates(cand, ref []Cell) bool {
	if len(cand) != len(ref) {
		return false
	}
	for i := range cand {
		if cand[i].Size != ref[i].Size || cand[i].AvgUs > ref[i].AvgUs {
			return false
		}
	}
	return true
}

// report assembles the table and provenance from the guarded genes.
func (s *search) report(chosen []gene, chosenCells [][]Cell, sources []string) *Result {
	table := assembleTable(s.cfg, s.contexts, chosen)
	prov := &Provenance{
		Seed:       s.cfg.Seed,
		Iterations: s.executed,
		Trajectory: s.traj,
	}
	prov.Evaluations = s.evals
	prov.CacheHits = s.hits
	if s.evals > 0 {
		prov.CacheHitRatio = float64(s.hits) / float64(s.evals)
	}
	for ci, c := range s.contexts {
		defObj := s.defaultObj[ci]
		tunedObj := objective(chosenCells[ci])
		cr := ContextReport{
			Placement:      c.placement.String(),
			Collective:     string(c.coll),
			Source:         sources[ci],
			DefaultUs:      defObj,
			TunedUs:        tunedObj,
			ImprovementPct: improvementPct(defObj, tunedObj),
			Thresholds:     c.thresholdMap(chosen[ci]),
			Forced:         chosen[ci].forced,
		}
		def := c.defaultGene()
		for k, cell := range chosenCells[ci] {
			cr.Cells = append(cr.Cells, CellReport{
				Size:             cell.Size,
				DefaultAlgorithm: c.algorithmFor(s.cfg, def, cell.Size),
				TunedAlgorithm:   c.algorithmFor(s.cfg, chosen[ci], cell.Size),
				DefaultUs:        s.defaultCells[ci][k].AvgUs,
				TunedUs:          cell.AvgUs,
			})
		}
		b := s.bandits[ci]
		for i, oi := range b.opIndex {
			rep := OperatorReport{
				Name:     operators[oi].name,
				Pulls:    b.pulls[i],
				Accepted: b.accepted[i],
				Improved: b.improved[i],
			}
			if b.pulls[i] > 0 {
				rep.MeanReward = b.reward[i] / float64(b.pulls[i])
			}
			cr.Operators = append(cr.Operators, rep)
		}
		prov.Contexts = append(prov.Contexts, cr)
		prov.DefaultTotalUs += defObj
		prov.TunedTotalUs += tunedObj
	}
	prov.ImprovementPct = improvementPct(prov.DefaultTotalUs, prov.TunedTotalUs)
	return &Result{Table: table, Provenance: prov}
}

func improvementPct(def, tuned float64) float64 {
	if def <= 0 {
		return 0
	}
	return 100 * (def - tuned) / def
}

// totalBest sums the per-context best objectives: the trajectory metric.
func (s *search) totalBest() float64 {
	var sum float64
	for _, o := range s.bestObj {
		sum += o
	}
	return sum
}
