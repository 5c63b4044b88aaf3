package tune

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/mpi"
)

// Placement is one (ranks, processes-per-node) point the search tunes.
type Placement struct {
	Ranks int
	PPN   int
}

func (p Placement) String() string { return fmt.Sprintf("%dx%d", p.Ranks, p.PPN) }

// ParsePlacements parses a comma-separated placement list like
// "16x1,224x56".
func ParsePlacements(s string) ([]Placement, error) {
	var out []Placement
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		ranks, ppn, ok := strings.Cut(tok, "x")
		if !ok {
			return nil, fmt.Errorf("tune: placement %q is not RANKSxPPN", tok)
		}
		r, err1 := strconv.Atoi(ranks)
		p, err2 := strconv.Atoi(ppn)
		if err1 != nil || err2 != nil || r < 2 || p < 1 {
			return nil, fmt.Errorf("tune: bad placement %q", tok)
		}
		out = append(out, Placement{Ranks: r, PPN: p})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tune: no placements in %q", s)
	}
	return out, nil
}

// knob is one tunable threshold of a collective: a named pointer into
// mpi.Tuning plus the power-of-two lattice the operators move it on.
type knob struct {
	name     string
	get      func(t *mpi.Tuning) *int
	min, max int
}

// knobsFor returns the thresholds the selection predicates of coll
// consult. ReduceScatter has none: its policy space is forced overrides
// only.
func knobsFor(coll mpi.Collective) []knob {
	switch coll {
	case mpi.CollBcast:
		return []knob{{
			name: "bcast_scatter_ring_min",
			get:  func(t *mpi.Tuning) *int { return &t.BcastScatterRingMin },
			min:  1024, max: 8 << 20,
		}}
	case mpi.CollAllreduce:
		return []knob{{
			name: "allreduce_rabenseifner_min",
			get:  func(t *mpi.Tuning) *int { return &t.AllreduceRabenseifnerMin },
			min:  256, max: 8 << 20,
		}}
	case mpi.CollAllgather:
		return []knob{{
			name: "allgather_rd_max_total",
			get:  func(t *mpi.Tuning) *int { return &t.AllgatherRDMaxTotal },
			min:  4096, max: 64 << 20,
		}, {
			name: "allgather_bruck_max_total",
			get:  func(t *mpi.Tuning) *int { return &t.AllgatherBruckMaxTotal },
			min:  4096, max: 64 << 20,
		}}
	case mpi.CollAlltoall:
		return []knob{{
			name: "alltoall_bruck_max_block",
			get:  func(t *mpi.Tuning) *int { return &t.AlltoallBruckMaxBlock },
			min:  64, max: 1 << 20,
		}}
	default:
		return nil
	}
}

// gene is one candidate sub-policy: the threshold vector of a context's
// knobs plus an optional forced algorithm. A context's gene only ever
// touches its own collective's fields, so probes of different collectives
// occupy disjoint regions of the options space and a mutation in one
// context never invalidates the cached probes of another.
type gene struct {
	thresholds []int
	forced     string
}

func (g gene) clone() gene {
	out := gene{forced: g.forced}
	out.thresholds = append([]int(nil), g.thresholds...)
	return out
}

func (g gene) equal(o gene) bool {
	if g.forced != o.forced || len(g.thresholds) != len(o.thresholds) {
		return false
	}
	for i := range g.thresholds {
		if g.thresholds[i] != o.thresholds[i] {
			return false
		}
	}
	return true
}

// searchContext is one (placement, collective) cell group of the search:
// the bandit's context, the probe template, and the feasible moves.
type searchContext struct {
	placement Placement
	coll      mpi.Collective
	bench     core.Benchmark
	knobs     []knob
	// algos are the algorithm names feasible at this communicator size, in
	// registry (selection-priority) order — the force_swap operator's arms.
	algos []string
	// ops are the indices into the global operator set applicable here.
	ops []int
}

func (c *searchContext) name() string {
	return c.placement.String() + "/" + string(c.coll)
}

// buildContexts enumerates (placement, collective) in configured order.
func buildContexts(cfg Config) ([]*searchContext, error) {
	var out []*searchContext
	for _, pl := range cfg.Placements {
		for _, coll := range cfg.Collectives {
			bench := core.Benchmark(string(coll))
			if _, err := core.LookupBenchmark(string(bench)); err != nil {
				return nil, fmt.Errorf("tune: collective %s has no benchmark: %w", coll, err)
			}
			ctx := &searchContext{
				placement: pl,
				coll:      coll,
				bench:     bench,
				knobs:     knobsFor(coll),
			}
			sel := mpi.Selection{CommSize: pl.Ranks}
			for _, a := range mpi.Algorithms(coll) {
				if a.FeasibleFor(sel) {
					ctx.algos = append(ctx.algos, a.Name)
				}
			}
			if len(ctx.algos) == 0 {
				return nil, fmt.Errorf("tune: no feasible %s algorithm at %d ranks", coll, pl.Ranks)
			}
			out = append(out, ctx)
		}
	}
	return out, nil
}

// defaultGene is the shipped policy as a gene: default thresholds, no
// force.
func (c *searchContext) defaultGene() gene {
	g := gene{}
	def := mpi.DefaultTuning()
	for _, k := range c.knobs {
		g.thresholds = append(g.thresholds, *k.get(&def))
	}
	return g
}

// tuning renders the gene's thresholds into a Tuning that sets only this
// collective's fields (zero elsewhere).
func (c *searchContext) tuning(g gene) mpi.Tuning {
	var t mpi.Tuning
	for i, k := range c.knobs {
		*k.get(&t) = g.thresholds[i]
	}
	return t
}

// probeOptions builds the objective probe for one gene: a timing-only
// sweep of this context's collective benchmark at its placement, carrying
// only this collective's policy fields, under cfg.Defaults. Keeping the
// probe minimal is what makes the evaluator cache effective: the content
// address depends on nothing another context mutates. Applying the
// Defaults here means the run, the selected algorithm, the row store's
// keys and the content address all see the same options.
func (c *searchContext) probeOptions(cfg Config, g gene) core.Options {
	opts := core.Options{
		Benchmark:  c.bench,
		Cluster:    cfg.Cluster,
		Impl:       cfg.Impl,
		Ranks:      c.placement.Ranks,
		PPN:        c.placement.PPN,
		TimingOnly: true,
		Iters:      cfg.ProbeIters,
		Warmup:     cfg.ProbeWarmup,
		Sizes:      cfg.Sizes,
		Tuning:     c.tuning(g),
	}
	if g.forced != "" {
		opts.Algorithms = map[string]string{string(c.coll): g.forced}
	}
	return cfg.Defaults.Apply(opts)
}

// algorithmFor names the algorithm the gene's policy picks for one cell:
// the algorithm a run of the gene's probe dispatches at that size.
func (c *searchContext) algorithmFor(cfg Config, g gene, size int) string {
	name, err := c.probeOptions(cfg, g).SelectedAlgorithm(size)
	if err != nil {
		return "error: " + err.Error()
	}
	return name
}

// assembleTable merges the chosen per-context genes into a
// placement-indexed tuning table with explicit effective thresholds.
func assembleTable(cfg Config, contexts []*searchContext, chosen []gene) *mpi.TuningTable {
	byPlacement := map[Placement]*mpi.TuningTableEntry{}
	var order []Placement
	for i, c := range contexts {
		e, ok := byPlacement[c.placement]
		if !ok {
			t := mpi.DefaultTuning()
			e = &mpi.TuningTableEntry{
				Ranks:  c.placement.Ranks,
				PPN:    c.placement.PPN,
				Policy: mpi.Policy{Tuning: t},
			}
			byPlacement[c.placement] = e
			order = append(order, c.placement)
		}
		g := chosen[i]
		for ki, k := range c.knobs {
			*k.get(&e.Policy.Tuning) = g.thresholds[ki]
		}
		if g.forced != "" {
			if e.Policy.Forced == nil {
				e.Policy.Forced = map[mpi.Collective]string{}
			}
			e.Policy.Forced[c.coll] = g.forced
		}
	}
	table := &mpi.TuningTable{
		Comment: fmt.Sprintf("generated by ombtune (seed %d, %d iterations)", cfg.Seed, cfg.Iterations),
	}
	for _, pl := range order {
		table.Entries = append(table.Entries, *byPlacement[pl])
	}
	table.Sort()
	return table
}

// thresholdMap renders a gene's thresholds keyed by knob name, for
// provenance.
func (c *searchContext) thresholdMap(g gene) map[string]int {
	if len(c.knobs) == 0 {
		return nil
	}
	out := make(map[string]int, len(c.knobs))
	for i, k := range c.knobs {
		out[k.name] = g.thresholds[i]
	}
	return out
}

// sortedSizes returns cfg.Sizes ascending (they are validated ascending;
// this is belt and braces for provenance ordering).
func sortedSizes(sizes []int) []int {
	out := append([]int(nil), sizes...)
	sort.Ints(out)
	return out
}
