package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// Sweep runs one benchmark across several configurations (modes, buffer
// libraries, implementations, algorithms, scales) and collects aligned
// series -- the pattern behind every figure of the paper. A Sweep is
// declarative: the Base options are cloned and each Variant mutates its
// copy.
type Sweep struct {
	// Base is the configuration shared by all variants.
	Base Options
	// Variants name and derive each configuration.
	Variants []Variant
	// Workers bounds how many variants run concurrently. Every variant
	// owns an independent virtual world, so scheduling cannot change the
	// numbers: results are bit-identical to serial execution and reported
	// in declaration order. 0 takes Defaults.SweepWorkers (serial when
	// that is below 1); negative uses GOMAXPROCS.
	Workers int
	// Defaults fill each variant's options after its Mutate, so a tuning
	// table entry is looked up at the variant's own placement, and
	// Defaults.Timeout bounds each variant's run.
	Defaults Defaults
}

// Variant is one line of a figure.
type Variant struct {
	// Name labels the resulting series (defaults to the derived options'
	// canonical series name).
	Name string
	// Mutate adjusts a copy of the base options.
	Mutate func(*Options)
}

// SweepResult pairs each variant with its report, in declaration order.
type SweepResult struct {
	Reports []*Report
}

// Run executes every variant on a bounded worker pool. Determinism carries
// over from Run: each variant simulates an independent virtual world, so
// the output depends only on the configurations, never on the schedule --
// reports come back in declaration order and bit-identical to a serial
// sweep. If variants fail, the error of the earliest-declared failure is
// returned, as a serial sweep would.
func (s Sweep) Run() (*SweepResult, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: each variant runs under ctx (its
// expiry is classified in that variant's Report.Failure), and a canceled
// sweep stops launching queued variants instead of draining the whole
// variant list — the producer and the workers both observe ctx. When the
// cancel left variants unlaunched, the partial sweep is reported as an
// error wrapping the context's cause; a sweep whose variants all completed
// before the cancel returns its full result.
func (s Sweep) RunContext(ctx context.Context) (*SweepResult, error) {
	if len(s.Variants) == 0 {
		return nil, fmt.Errorf("core: sweep has no variants")
	}
	workers := s.Workers
	if workers == 0 {
		workers = max(s.Defaults.SweepWorkers, 1)
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.Variants) {
		workers = len(s.Variants)
	}

	reports := make([]*Report, len(s.Variants))
	errs := make([]error, len(s.Variants))
	jobs := make(chan int)
	// failed makes the pool fail fast: once any variant errors, queued
	// variants are abandoned (in-flight ones finish). With one worker this
	// is exactly the serial stop-at-first-error; with several, the
	// earliest-declared recorded error is reported either way.
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() || ctx.Err() != nil {
					continue
				}
				reports[i], errs[i] = s.runVariant(ctx, i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	// The producer itself is fail-fast and cancellation-aware: it stops
	// handing out queued variants on the first recorded error or cancel
	// instead of pushing the whole list through workers that would only
	// skip them one by one.
	for i := range s.Variants {
		if failed.Load() || ctx.Err() != nil {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			name := s.Variants[i].Name
			if name == "" {
				name = fmt.Sprintf("variant %d", i)
			}
			return nil, fmt.Errorf("core: sweep %s: %w", name, err)
		}
	}
	if ctx.Err() != nil {
		launched := 0
		for _, r := range reports {
			if r != nil {
				launched++
			}
		}
		if launched < len(s.Variants) {
			return nil, fmt.Errorf("core: sweep canceled after %d of %d variants: %w",
				launched, len(s.Variants), context.Cause(ctx))
		}
	}
	return &SweepResult{Reports: reports}, nil
}

// runVariant derives and runs the i-th configuration under the sweep's
// context and Defaults; Defaults.Timeout, when set, bounds the run on top
// of ctx (the earliest deadline wins).
func (s Sweep) runVariant(ctx context.Context, i int) (*Report, error) {
	v := s.Variants[i]
	opts := s.Base
	if v.Mutate != nil {
		v.Mutate(&opts)
	}
	if s.Defaults.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Defaults.Timeout)
		defer cancel()
	}
	rep, err := RunContext(ctx, s.Defaults.Apply(opts))
	if err != nil {
		return nil, err
	}
	if v.Name != "" {
		rep.Series.Name = v.Name
	}
	return rep, nil
}

// AlgorithmVariants returns one sweep variant per registered algorithm of
// the benchmark's collective, each forcing that algorithm by name.
// Algorithms that are infeasible for the options' rank count (recursive
// doubling and halving need power-of-two groups) are skipped rather than
// left to fail at run time.
func AlgorithmVariants(opts Options) ([]Variant, error) {
	coll, ok := opts.Benchmark.Collective()
	if !ok {
		return nil, fmt.Errorf("core: benchmark %s has no selectable algorithms", opts.Benchmark)
	}
	ranks := opts.withDefaults().Ranks
	var variants []Variant
	for _, a := range mpi.Algorithms(coll) {
		if !a.FeasibleFor(mpi.Selection{CommSize: ranks}) {
			continue
		}
		name := a.Name
		variants = append(variants, Variant{Name: name, Mutate: func(o *Options) {
			o.Algorithms = map[string]string{string(coll): name}
		}})
	}
	return variants, nil
}

// Series returns the variants' series, aligned for tabling or charting.
func (r *SweepResult) Series() []*stats.Series {
	out := make([]*stats.Series, len(r.Reports))
	for i, rep := range r.Reports {
		out[i] = &rep.Series
	}
	return out
}

// Table renders the sweep as a size-by-variant table.
func (r *SweepResult) Table(title, metric string) stats.Table {
	return stats.Table{Title: title, Metric: metric, Series: r.Series()}
}
