// Command ombrepro regenerates the paper's figures and tables.
//
// Usage:
//
//	ombrepro -experiment fig2        # one experiment
//	ombrepro -experiment algo_allgather -parallel 4   # algorithm ablation
//	ombrepro -all                    # everything except the 896-rank runs
//	ombrepro -all -heavy             # everything
//	ombrepro -all -algorithm allgather=ring           # forced-algorithm rerun
//	ombrepro -list                   # enumerate experiment ids
//
// Each experiment prints the series its figure plots plus a
// paper-vs-measured line for every statistic the paper quotes in prose.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/stats"
)

func main() {
	var (
		id        = flag.String("experiment", "", "experiment id (fig1..fig34, table1..table3, algo_*)")
		all       = flag.Bool("all", false, "run every experiment")
		heavy     = flag.Bool("heavy", false, "include the 896-rank full-subscription experiments")
		list      = flag.Bool("list", false, "list experiment ids")
		plot      = flag.Bool("plot", false, "render each experiment's series as an ASCII chart")
		algo      = flag.String("algorithm", "", "force collective algorithms for every run, as coll=name pairs (e.g. allgather=ring,allreduce=rd)")
		par       = flag.Int("parallel", 0, "sweep worker count for multi-variant experiments (0 = serial)")
		fold      = flag.Bool("fold", true, "let the event loop fold symmetric ranks (false forces every rank to execute; reported numbers are identical either way)")
		faults    = flag.String("faults", "", "deterministic fault plan applied to every run, e.g. \"noise:sigma=2us; jitter:link=0.1; seed:7\"")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget per benchmark run (0 = none); expiry reports a structured timeout failure instead of running on")
		tableFile = flag.String("tuning-table", "", "apply a generated tuning table (see ombtune) as the per-placement default selection policy")
	)
	flag.Parse()
	plotCharts = *plot

	d := core.Defaults{
		NoFold:       !*fold,
		Faults:       *faults,
		Timeout:      *timeout,
		SweepWorkers: *par,
	}
	if *tableFile != "" {
		data, err := os.ReadFile(*tableFile)
		if err != nil {
			fatal(err)
		}
		table, err := mpi.ParseTuningTable(data)
		if err != nil {
			fatal(fmt.Errorf("-tuning-table %s: %w", *tableFile, err))
		}
		d.TuningTable = table
	}
	if *algo != "" {
		forced, err := core.ParseAlgorithmList(*algo)
		if err != nil {
			fatal(err)
		}
		d.Algorithms = forced
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			tag := ""
			if e.Heavy {
				tag = " [heavy]"
			}
			fmt.Printf("%-8s %s%s\n", e.ID, e.Title, tag)
		}
	case *id != "":
		e, err := experiments.ByID(*id)
		if err != nil {
			fatal(err)
		}
		if err := runOne(e, d); err != nil {
			fatal(fmt.Errorf("%s FAILED: %w", e.ID, err))
		}
	case *all:
		failed := 0
		for _, e := range experiments.All() {
			if e.Heavy && !*heavy {
				fmt.Printf("=== %s: %s === (skipped; pass -heavy)\n\n", e.ID, e.Title)
				continue
			}
			if err := runOne(e, d); err != nil {
				fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.ID, err)
				failed++
			}
		}
		if failed > 0 {
			fatal(fmt.Errorf("%d experiments failed", failed))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// plotCharts mirrors the -plot flag.
var plotCharts bool

func runOne(e experiments.Experiment, d core.Defaults) error {
	start := time.Now()
	res, err := e.RunWith(d)
	if err != nil {
		return err
	}
	res.Title = e.Title
	fmt.Print(res.Render())
	if plotCharts && len(res.Table.Series) > 0 {
		ch := stats.Chart{
			Metric: res.Table.Metric,
			Series: res.Table.Series,
			LogY:   strings.Contains(res.Table.Metric, "latency"),
		}
		fmt.Print(ch.Render())
	}
	fmt.Printf("(wall time %.1fs)\n\n", time.Since(start).Seconds())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ombrepro:", err)
	os.Exit(1)
}
