package tune

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/serve"
)

// testConfig is a small but real search: two placements, two collectives
// with different knob shapes, a few dozen iterations.
func testConfig(seed uint64) Config {
	return Config{
		Seed:        seed,
		Iterations:  48,
		Placements:  []Placement{{Ranks: 4, PPN: 1}, {Ranks: 8, PPN: 2}},
		Collectives: []mpi.Collective{mpi.CollAllreduce, mpi.CollAlltoall},
		Sizes:       []int{1024, 4096, 16384, 65536},
		ProbeIters:  3,
		ProbeWarmup: 1,
	}
}

// render returns the byte-exact artifacts of one run.
func render(t *testing.T, res *Result) (string, string) {
	t.Helper()
	table, err := res.TableJSON()
	if err != nil {
		t.Fatal(err)
	}
	prov, err := res.ProvenanceJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(table), string(prov)
}

// TestSearchDeterministicSameSeed pins the headline contract: same seed,
// same budget -> byte-identical table and provenance.
func TestSearchDeterministicSameSeed(t *testing.T) {
	ctx := context.Background()
	a, err := Run(ctx, testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	aTab, aProv := render(t, a)
	bTab, bProv := render(t, b)
	if aTab != bTab {
		t.Errorf("same seed produced different tables:\n%s\n---\n%s", aTab, bTab)
	}
	if aProv != bProv {
		t.Errorf("same seed produced different provenance:\n%s\n---\n%s", aProv, bProv)
	}
	if a.Provenance.Evaluations == 0 {
		t.Error("search made no evaluations")
	}
	if len(a.Provenance.Trajectory) == 0 {
		t.Error("search recorded no objective trajectory")
	}
	if a.Provenance.CacheHits == 0 {
		t.Error("a 48-iteration search should revisit at least one configuration (finalize re-probes the best)")
	}
}

// TestSearchParallelMatchesSerial pins byte-identity across the -parallel
// evaluation knob.
func TestSearchParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	serialCfg := testConfig(11)
	serialCfg.Workers = 1
	parallelCfg := testConfig(11)
	parallelCfg.Workers = 4

	serial, err := Run(ctx, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(ctx, parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	sTab, sProv := render(t, serial)
	pTab, pProv := render(t, parallel)
	if sTab != pTab {
		t.Error("parallel evaluation changed the table")
	}
	if sProv != pProv {
		t.Error("parallel evaluation changed the provenance")
	}
}

// TestSearchHTTPMatchesInProcess pins byte-identity across evaluator
// backends, and that the search demonstrably hits the service's cache.
func TestSearchHTTPMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	local, err := Run(ctx, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}

	svc := serve.NewServer(serve.Config{Workers: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cfg := testConfig(3)
	cfg.Workers = 2
	cfg.Evaluator = &ServeEvaluator{Client: &serve.Client{BaseURL: srv.URL}}
	remote, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	lTab, lProv := render(t, local)
	rTab, rProv := render(t, remote)
	if lTab != rTab {
		t.Errorf("HTTP backend changed the table:\n%s\n---\n%s", lTab, rTab)
	}
	if lProv != rProv {
		t.Errorf("HTTP backend changed the provenance:\n%s\n---\n%s", lProv, rProv)
	}

	st := svc.Snapshot()
	if st.CacheHits == 0 {
		t.Errorf("search through ombserve recorded no cache hits: %+v", st)
	}
	if remote.Provenance.CacheHits == 0 || remote.Provenance.CacheHitRatio <= 0 {
		t.Errorf("provenance cites no cache behavior: %+v", remote.Provenance)
	}
}

// TestGeneratedTableNeverWorse pins the dominance guard: every shipped
// cell is at least as fast as the shipped default.
func TestGeneratedTableNeverWorse(t *testing.T) {
	res, err := Run(context.Background(), testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range res.Provenance.Contexts {
		for _, cell := range cr.Cells {
			if cell.TunedUs > cell.DefaultUs {
				t.Errorf("%s/%s size %d: tuned %.3fus > default %.3fus (source %s)",
					cr.Placement, cr.Collective, cell.Size, cell.TunedUs, cell.DefaultUs, cr.Source)
			}
		}
		if cr.TunedUs > cr.DefaultUs {
			t.Errorf("%s/%s: tuned objective %.3f > default %.3f",
				cr.Placement, cr.Collective, cr.TunedUs, cr.DefaultUs)
		}
	}
}

// TestGeneratedTableRoundTripsThroughJSON: the emitted artifact parses
// back into a table whose policies select identically — the "ship it"
// contract end to end.
func TestGeneratedTableRoundTrips(t *testing.T) {
	res, err := Run(context.Background(), testConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.TableJSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := mpi.ParseTuningTable(data)
	if err != nil {
		t.Fatalf("emitted table does not parse: %v\n%s", err, data)
	}
	if len(parsed.Entries) != 2 {
		t.Fatalf("expected 2 placements, got %d", len(parsed.Entries))
	}
	for _, e := range parsed.Entries {
		if _, ok := parsed.Lookup(e.Ranks, e.PPN); !ok {
			t.Errorf("lookup misses its own entry %dx%d", e.Ranks, e.PPN)
		}
	}
}

func TestParsePlacements(t *testing.T) {
	got, err := ParsePlacements("16x1, 224x56")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (Placement{16, 1}) || got[1] != (Placement{224, 56}) {
		t.Errorf("ParsePlacements = %v", got)
	}
	for _, bad := range []string{"", "16", "0x1", "16x0", "axb"} {
		if _, err := ParsePlacements(bad); err == nil {
			t.Errorf("ParsePlacements(%q) should fail", bad)
		}
	}
}

// TestProbeIsolation pins the cache-friendliness invariant: a context's
// probe carries only its own collective's policy fields, so a mutation in
// one collective never changes another's probe keys.
func TestProbeIsolation(t *testing.T) {
	cfg := testConfig(1).withDefaults()
	contexts, err := buildContexts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range contexts {
		g := c.defaultGene()
		opts := c.probeOptions(cfg, g)
		tun := opts.Tuning
		switch c.coll {
		case mpi.CollAllreduce:
			if tun.AllreduceRabenseifnerMin == 0 || tun.AlltoallBruckMaxBlock != 0 ||
				tun.BcastScatterRingMin != 0 || tun.AllgatherRDMaxTotal != 0 {
				t.Errorf("allreduce probe leaks foreign knobs: %+v", tun)
			}
		case mpi.CollAlltoall:
			if tun.AlltoallBruckMaxBlock == 0 || tun.AllreduceRabenseifnerMin != 0 {
				t.Errorf("alltoall probe leaks foreign knobs: %+v", tun)
			}
		}
		if opts.Algorithms != nil {
			t.Errorf("unforced probe should not set Algorithms: %+v", opts.Algorithms)
		}
		withDefaults := cfg
		withDefaults.Defaults = core.Defaults{Faults: "seed:3", NoFold: true}
		if p := c.probeOptions(withDefaults, g); p.Faults != "seed:3" || !p.NoFold {
			t.Errorf("probe ignores Config.Defaults: faults %q, no_fold %v", p.Faults, p.NoFold)
		}
	}
}

// TestBanditPrefersRewardingArm sanity-checks UCB: with one arm always
// rewarded and one never, pulls concentrate on the former.
func TestBanditPrefersRewardingArm(t *testing.T) {
	b := newContextBandit([]int{0, 1})
	for i := 0; i < 100; i++ {
		arm := b.pick()
		if arm == 0 {
			b.update(arm, 1.0, true, false)
		} else {
			b.update(arm, 0.0, false, false)
		}
	}
	if b.pulls[0] <= b.pulls[1] {
		t.Errorf("bandit did not favor the rewarding arm: pulls %v", b.pulls)
	}
}

// TestRowStoreMatchesWholeProbes pins the row store against whole-probe
// runs: every answer, first sight or repeat, equals core.RunContext of the
// same probe. The probes overlap in sizes and policies, so a store keyed
// too coarsely would answer some of them with another probe's rows. It runs
// under a -faults default, whose draws make a row depend on the sizes
// before it, and under a -tuning-table default whose forced algorithm an
// unforced probe runs; both are applied to the probes as probeOptions
// applies Config.Defaults.
func TestRowStoreMatchesWholeProbes(t *testing.T) {
	sizes := []int{1024, 4096, 16384, 65536}
	var probes []core.Options
	for _, axis := range [][]int{sizes, sizes[1:2], sizes[:3], sizes[2:]} {
		for _, min := range []int{0, 2048, 32768} {
			for _, forced := range []string{"", "recursive_doubling", "rabenseifner"} {
				opts := core.Options{
					Benchmark: "allreduce", Ranks: 16, PPN: 1, TimingOnly: true,
					Iters: 3, Warmup: 1, Sizes: axis,
					Tuning: mpi.Tuning{AllreduceRabenseifnerMin: min},
				}
				if forced != "" {
					opts.Algorithms = map[string]string{"allreduce": forced}
				}
				probes = append(probes, opts)
			}
		}
	}
	check := func(t *testing.T, d core.Defaults) {
		ctx := context.Background()
		ev := NewCoreEvaluator()
		seen := map[string]bool{}
		for pass := 0; pass < 2; pass++ {
			for i, opts := range probes {
				opts = d.Apply(opts)
				got, err := ev.Evaluate(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				if key := opts.CacheKey(); got.Cached != seen[key] {
					t.Errorf("pass %d probe %d: Cached = %v, content address seen before = %v", pass, i, got.Cached, seen[key])
				} else {
					seen[key] = true
				}
				rep, err := core.RunContext(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Cells) != len(rep.Series.Rows) {
					t.Fatalf("probe %d: %d cells, whole run has %d rows", i, len(got.Cells), len(rep.Series.Rows))
				}
				for k, row := range rep.Series.Rows {
					if got.Cells[k] != (Cell{Size: row.Size, AvgUs: row.AvgUs}) {
						t.Errorf("pass %d probe %d (sizes %v, tuning %+v, algorithms %v): cell %+v, whole run %d B %.6f us",
							pass, i, opts.Sizes, opts.Tuning, opts.Algorithms, got.Cells[k], row.Size, row.AvgUs)
					}
				}
			}
		}
	}
	t.Run("faults default", func(t *testing.T) {
		check(t, core.Defaults{Faults: "noise:sigma=5us; seed:3"})
	})
	t.Run("tuning table", func(t *testing.T) {
		check(t, core.Defaults{TuningTable: &mpi.TuningTable{Entries: []mpi.TuningTableEntry{{
			Ranks: 16, PPN: 1,
			Policy: mpi.Policy{
				Tuning: mpi.Tuning{AllreduceRabenseifnerMin: 4096},
				Forced: map[mpi.Collective]string{mpi.CollAllreduce: "rabenseifner"},
			},
		}}}})
	})
}

// TestRowStoreConcurrentProbes evaluates probes that share rows from
// several goroutines at once, as evalBatch does: every answer must still
// equal the whole-probe run.
func TestRowStoreConcurrentProbes(t *testing.T) {
	ctx := context.Background()
	ev := NewCoreEvaluator()
	var wg sync.WaitGroup
	for _, min := range []int{1024, 4096, 16384, 65536} {
		for _, sizes := range [][]int{{1024, 4096, 16384, 65536}, {4096, 65536}} {
			opts := core.Options{
				Benchmark: "allreduce", Ranks: 16, PPN: 1, TimingOnly: true, Iters: 3, Warmup: 1,
				Sizes: sizes, Tuning: mpi.Tuning{AllreduceRabenseifnerMin: min},
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := ev.Evaluate(ctx, opts)
				if err != nil {
					t.Error(err)
					return
				}
				rep, err := core.RunContext(ctx, opts)
				if err != nil {
					t.Error(err)
					return
				}
				for k, row := range rep.Series.Rows {
					if got.Cells[k] != (Cell{Size: row.Size, AvgUs: row.AvgUs}) {
						t.Errorf("threshold %d sizes %v: cell %+v, whole run %+v", min, sizes, got.Cells[k], row)
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestRowStoreSimulatesOnlyMissingRows pins the saving: a probe whose rows
// another probe already produced is answered without a simulation, and a
// threshold move re-simulates only the sizes whose algorithm it changes.
func TestRowStoreSimulatesOnlyMissingRows(t *testing.T) {
	ctx := context.Background()
	ev := NewCoreEvaluator()
	probe := func(min int) core.Options {
		return core.Options{
			Benchmark: "allreduce", Ranks: 16, PPN: 1, TimingOnly: true, Iters: 3, Warmup: 1,
			Sizes: []int{1024, 4096, 16384, 65536}, Tuning: mpi.Tuning{AllreduceRabenseifnerMin: min},
		}
	}
	stored := func() int {
		ev.mu.Lock()
		defer ev.mu.Unlock()
		return len(ev.rows)
	}
	for _, step := range []struct {
		min, rows int
	}{
		{32768, 4}, // recursive doubling below 32 KiB, Rabenseifner at 64 KiB
		{65536, 4}, // the same algorithm at every size: no new row
		{8192, 5},  // Rabenseifner at 16 KiB is the only new row
		{1024, 7},  // and at 1 KiB and 4 KiB
	} {
		res, err := ev.Evaluate(ctx, probe(step.min))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Errorf("threshold %d: a new probe reported a hit", step.min)
		}
		if got := stored(); got != step.rows {
			t.Errorf("threshold %d: store holds %d rows, want %d", step.min, got, step.rows)
		}
	}
}
