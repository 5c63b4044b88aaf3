// Command ombtune searches the collective-selection policy space with an
// ALNS/bandit auto-tuner and emits a generated per-topology tuning table
// plus a provenance report.
//
// Examples:
//
//	ombtune -seed 1 -iters 400                    # tune 16x1 and 224x56
//	ombtune -placements 16x1,63x7 -collectives allreduce,alltoall
//	ombtune -serve http://127.0.0.1:8439          # probe through ombserve
//	ombtune -table - -provenance ""               # table to stdout only
//
// The same seed and iteration budget always produce byte-identical
// outputs, at any -parallel value and against either evaluator backend;
// -budget trades that determinism for a wall-clock bound. Apply the
// result with ombpy/ombrepro -tuning-table FILE.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/serve"
	"repro/internal/tune"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 1, "search seed; same seed + budget = byte-identical outputs")
		iters      = flag.Int("iters", 400, "iteration budget (mutations proposed)")
		budget     = flag.Duration("budget", 0, "wall-clock budget (0 = none); stopping early forfeits byte-identity")
		placements = flag.String("placements", "16x1,224x56", "comma-separated RANKSxPPN placements to tune")
		colls      = flag.String("collectives", "", "comma-separated collectives to tune (default: all)")
		cluster    = flag.String("cluster", "frontera", "cluster model")
		impl       = flag.String("impl", "mvapich2", "MPI implementation: mvapich2, intelmpi")
		minSize    = flag.Int("min", 1<<10, "smallest probe message size (power of two)")
		maxSize    = flag.Int("max", 1<<20, "largest probe message size (power of two)")
		par        = flag.Int("parallel", 0, "probe-evaluation workers for batch phases (0 = serial; the answer is identical either way)")
		serveURL   = flag.String("serve", "", "evaluate probes through an ombserve instance at this base URL instead of in process")
		tableOut   = flag.String("table", "tuning_table.json", "output file for the generated table (\"-\" = stdout, \"\" = skip)")
		provOut    = flag.String("provenance", "tuning_provenance.json", "output file for the provenance report (\"-\" = stdout, \"\" = skip)")
	)
	flag.Parse()

	if *iters < 1 {
		check(fmt.Errorf("-iters must be at least 1, got %d", *iters))
	}
	pls, err := tune.ParsePlacements(*placements)
	check(err)
	mpiImpl, err := netmodel.ParseImpl(*impl)
	check(err)

	cfg := tune.Config{
		Seed:       *seed,
		Iterations: *iters,
		Budget:     *budget,
		Placements: pls,
		Cluster:    *cluster,
		Impl:       mpiImpl,
		Workers:    *par,
	}
	if *colls != "" {
		for _, tok := range strings.Split(*colls, ",") {
			coll, err := mpi.ParseCollective(strings.TrimSpace(tok))
			check(err)
			cfg.Collectives = append(cfg.Collectives, coll)
		}
	}
	if *minSize < 4 || *maxSize < *minSize {
		check(fmt.Errorf("bad size range [%d, %d]", *minSize, *maxSize))
	}
	for size := *minSize; size <= *maxSize; size *= 2 {
		cfg.Sizes = append(cfg.Sizes, size)
	}

	var client *serve.Client
	if *serveURL != "" {
		client = &serve.Client{BaseURL: strings.TrimRight(*serveURL, "/")}
		cfg.Evaluator = &tune.ServeEvaluator{Client: client}
	}

	start := time.Now()
	res, err := tune.Run(context.Background(), cfg)
	check(err)

	prov := res.Provenance
	fmt.Fprintf(os.Stderr, "ombtune: %d iterations, %d evaluations (%.0f%% cache hits) in %.1fs\n",
		prov.Iterations, prov.Evaluations, 100*prov.CacheHitRatio, time.Since(start).Seconds())
	fmt.Fprintf(os.Stderr, "ombtune: modeled sweep latency %.1fus -> %.1fus (%.2f%% better than shipped defaults)\n",
		prov.DefaultTotalUs, prov.TunedTotalUs, prov.ImprovementPct)
	for _, cr := range prov.Contexts {
		forced := ""
		if cr.Forced != "" {
			forced = " forced=" + cr.Forced
		}
		fmt.Fprintf(os.Stderr, "ombtune:   %-9s %-14s %-16s %8.1fus -> %8.1fus (%+.2f%%)%s\n",
			cr.Placement, cr.Collective, "["+cr.Source+"]", cr.DefaultUs, cr.TunedUs, -cr.ImprovementPct, forced)
	}
	if client != nil {
		if st, err := client.Stats(context.Background()); err == nil {
			fmt.Fprintf(os.Stderr, "ombtune: server cache: %d hits, %d misses, %d coalesced, %d entries, %d shed\n",
				st.CacheHits, st.CacheMisses, st.Coalesced, st.CacheEntries, st.Shed)
		} else {
			fmt.Fprintf(os.Stderr, "ombtune: GET /stats failed: %v\n", err)
		}
	}

	table, err := res.TableJSON()
	check(err)
	provJSON, err := res.ProvenanceJSON()
	check(err)
	check(emit(*tableOut, table, "table"))
	check(emit(*provOut, provJSON, "provenance"))
}

// emit writes an artifact to a file, stdout ("-"), or nowhere ("").
func emit(dest string, data []byte, what string) error {
	switch dest {
	case "":
		return nil
	case "-":
		_, err := os.Stdout.Write(append(data, '\n'))
		return err
	default:
		if err := os.WriteFile(dest, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ombtune: wrote %s to %s\n", what, dest)
		return nil
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ombtune:", err)
		os.Exit(1)
	}
}
