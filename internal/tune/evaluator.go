package tune

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Evaluator answers objective probes. The simulator's determinism is the
// load-bearing property: a probe's result is a pure function of its
// canonicalized options, so both backends may answer from a
// content-addressed cache and the search cannot tell the difference — the
// same seed walks the same trajectory whether probes are computed fresh,
// from the in-process row store, or by an ombserve instance shared with
// other tuners.
type Evaluator interface {
	// Evaluate runs one probe and reports whether the answer came from a
	// cache (a probe the in-process evaluator has answered before, or the
	// service's result cache / coalesced in-flight computation).
	Evaluate(ctx context.Context, opts core.Options) (EvalResult, error)
}

// Cell is one (message size, modeled latency) point of a probe.
type Cell struct {
	Size  int     `json:"size"`
	AvgUs float64 `json:"avg_us"`
}

// EvalResult is one probe's answer.
type EvalResult struct {
	Cells  []Cell
	Cached bool
}

// objective collapses a probe to the scalar the annealer compares: total
// modeled latency across the size axis.
func objective(cells []Cell) float64 {
	var sum float64
	for _, c := range cells {
		sum += c.AvgUs
	}
	return sum
}

// evalBatch evaluates independent probes on a bounded worker pool and
// collects results (and the eval/hit counters) in index order, so the
// outcome is identical at any worker count. Probes in one batch always
// have distinct content addresses (the callers guarantee it), so
// concurrent evaluation cannot race a memoizing backend into a different
// hit sequence than serial evaluation.
func (s *search) evalBatch(ctx context.Context, probes []core.Options) ([]EvalResult, error) {
	results := make([]EvalResult, len(probes))
	errs := make([]error, len(probes))
	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for i := range probes {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = s.evaluate(ctx, probes[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("probe %d (%s %dx%d): %w",
				i, probes[i].Benchmark, probes[i].Ranks, probes[i].PPN, err)
		}
	}
	for _, r := range results {
		s.evals++
		if r.Cached {
			s.hits++
		}
	}
	return results, nil
}

// evaluate answers one probe, within Defaults.Timeout when it is set.
func (s *search) evaluate(ctx context.Context, probe core.Options) (EvalResult, error) {
	if s.cfg.Defaults.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Defaults.Timeout)
		defer cancel()
	}
	return s.eval.Evaluate(ctx, probe)
}

// CoreEvaluator runs probes in process on the event engine. It answers
// from a row store: core.Run isolates sizes, so a fault-free row is a pure
// function of the probe without its policy for the measured collective, the
// size, and the algorithm the run selects there. A probe simulates only the
// rows the store lacks and is assembled from the store, whether it is new
// or seen before; moving one threshold re-simulates only the sizes whose
// algorithm it changes. Hit accounting stays per probe (Cached means the
// probe's content address was seen before), so the search's counters and
// artifacts match an evaluator that memoizes whole probes.
type CoreEvaluator struct {
	mu sync.Mutex
	// probes maps the content address of every probe answered so far to
	// its rows' keys in row order.
	probes map[string][]rowKey
	rows   map[rowKey]float64
}

// rowKey addresses one row in the store. Where a probe's rows are not
// isolated (rowKeys), probe is the probe's own content address and algo is
// empty, so its rows are only ever shared with the same probe.
type rowKey struct {
	probe string
	size  int
	algo  string
}

// NewCoreEvaluator returns an in-process evaluator with an empty store.
func NewCoreEvaluator() *CoreEvaluator {
	return &CoreEvaluator{probes: make(map[string][]rowKey), rows: make(map[rowKey]float64)}
}

// Evaluate implements Evaluator.
func (e *CoreEvaluator) Evaluate(ctx context.Context, opts core.Options) (EvalResult, error) {
	probe := opts.CacheKey()
	e.mu.Lock()
	keys, seen := e.probes[probe]
	e.mu.Unlock()
	if !seen {
		var err error
		if keys, err = e.fill(ctx, opts, probe); err != nil {
			return EvalResult{}, err
		}
	}
	cells := make([]Cell, len(keys))
	e.mu.Lock()
	for i, k := range keys {
		cells[i] = Cell{Size: k.size, AvgUs: e.rows[k]}
	}
	e.probes[probe] = keys
	e.mu.Unlock()
	return EvalResult{Cells: cells, Cached: seen}, nil
}

// fill stores every row of a probe not seen before and returns the rows'
// keys. Isolated rows already in the store are not simulated again: the
// run covers the missing sizes only. The mutex is never held across a
// simulation, so two probes missing the same row may both simulate it;
// they store the same bits.
func (e *CoreEvaluator) fill(ctx context.Context, opts core.Options, probe string) ([]rowKey, error) {
	keys := rowKeys(opts)
	if keys == nil {
		rows, err := simulate(ctx, opts)
		if err != nil {
			return nil, err
		}
		keys = make([]rowKey, len(rows))
		e.mu.Lock()
		for i, row := range rows {
			keys[i] = rowKey{probe: probe, size: row.Size}
			e.rows[keys[i]] = row.AvgUs
		}
		e.mu.Unlock()
		return keys, nil
	}
	var missing []rowKey
	e.mu.Lock()
	for _, k := range keys {
		if _, ok := e.rows[k]; !ok {
			missing = append(missing, k)
		}
	}
	e.mu.Unlock()
	if len(missing) == 0 {
		return keys, nil
	}
	sub := opts
	sub.Sizes = make([]int, len(missing))
	for i, k := range missing {
		sub.Sizes[i] = k.size
	}
	rows, err := simulate(ctx, sub)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	for i, row := range rows {
		e.rows[missing[i]] = row.AvgUs
	}
	e.mu.Unlock()
	return keys, nil
}

// rowKeys returns the store keys of a probe's rows in Sizes order, or nil
// where the rows are not isolated from each other and the probe runs whole:
// under an active fault plan, whose draws keep counting across sizes; for a
// benchmark without an algorithm registry; and for an empty Sizes. Options
// the run would reject (an infeasible forced algorithm, say) also return
// nil, so the whole-probe run reports the error.
func rowKeys(opts core.Options) []rowKey {
	coll, ok := opts.Benchmark.Collective()
	if !ok || len(opts.Sizes) == 0 || !opts.RowsIsolated() {
		return nil
	}
	algos, err := opts.SelectedAlgorithms(opts.Sizes)
	if err != nil {
		return nil
	}
	base := policyFreeKey(opts, coll)
	keys := make([]rowKey, len(opts.Sizes))
	for i, size := range opts.Sizes {
		keys[i] = rowKey{probe: base, size: size, algo: algos[i]}
	}
	return keys
}

// policyFreeKey is the content address of a probe with the measured
// collective's policy taken out: Sizes, coll's own Tuning knobs and its
// Algorithms entry are cleared, and every other field stays, other
// collectives' knobs included (a sub-collective may consult them).
func policyFreeKey(opts core.Options, coll mpi.Collective) string {
	for _, k := range knobsFor(coll) {
		*k.get(&opts.Tuning) = 0
	}
	if opts.Algorithms != nil {
		algos := make(map[string]string, len(opts.Algorithms))
		for name, algo := range opts.Algorithms {
			if c, err := mpi.ParseCollective(name); err != nil || c != coll {
				algos[name] = algo
			}
		}
		opts.Algorithms = algos
	}
	opts.Sizes = nil
	return opts.CacheKey()
}

// simulate runs one probe and returns its rows; a classified failure is an
// error.
func simulate(ctx context.Context, opts core.Options) ([]stats.Row, error) {
	rep, err := core.RunContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	if rep.Failure != nil {
		return nil, fmt.Errorf("tune: probe failed (%s): %s", rep.Failure.Code, rep.Failure.Message)
	}
	return rep.Series.Rows, nil
}

// ServeEvaluator answers probes over HTTP through a tuning service, so
// repeated configurations hit ombserve's content-addressed cache (and
// concurrent identical probes coalesce). It keeps no local memo on
// purpose: every probe exercises the service, which is both the point
// (shared cache across tuner processes) and what lets the provenance
// report cite real service cache behavior.
type ServeEvaluator struct {
	Client *serve.Client
}

// Evaluate implements Evaluator.
func (e *ServeEvaluator) Evaluate(ctx context.Context, opts core.Options) (EvalResult, error) {
	rep, status, err := e.Client.Sweep(ctx, opts)
	if err != nil {
		return EvalResult{}, err
	}
	if rep.Failure != nil {
		return EvalResult{}, fmt.Errorf("tune: probe failed (%s): %s", rep.Failure.Code, rep.Failure.Message)
	}
	cells := make([]Cell, len(rep.Rows))
	for i, row := range rep.Rows {
		cells[i] = Cell{Size: row.Size, AvgUs: row.AvgUs}
	}
	return EvalResult{Cells: cells, Cached: status.Cached()}, nil
}
