// Command bench is the repository benchmark. It runs four workloads that
// stand for the four entry points — regenerating the paper, a huge-world
// ombpy sweep, the ombserve tuning service under a read/write mix, and an
// ombtune search — each repetition in a fresh child process, and reports
// end-to-end metrics as medians with quartiles, per-layer metrics from
// traced repetitions, and whether every output matched its digest.
//
//	go run ./bench -seed 1                      # all workloads, interleaved
//	go run ./bench -workload huge_world -trace 1
//	go run ./bench -seed 1 -trace 1 -out A.json
//	go run ./bench -compare A.json B.json       # verdict per metric
//
// With -workload, the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics are the
// end-to-end metrics, or with -trace 1 the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "run one workload and print the result line (default: all, interleaved)")
		seed    = flag.Uint64("seed", 1, "seed the workload inputs are generated from")
		seconds = flag.Int("seconds", 25, "measurement time per workload, in seconds")
		trace   = flag.Int("trace", 0, "1 adds traced repetitions and reports the per-layer metrics")
		out     = flag.String("out", "", "also write the full results to this JSON file")
		compare = flag.Bool("compare", false, "compare two result files given as arguments: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}

	runs, err := runSession(ws, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	file := resultFile{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Host: currentHost()}
	for _, wr := range runs {
		rep, err := wr.report()
		if err != nil {
			return err
		}
		printReport(os.Stdout, rep)
		file.Workloads = append(file.Workloads, rep)
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *name == "" {
		return nil
	}
	line, err := resultLine(file.Workloads[0], *trace == 1)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// resultLine renders the one-line result: every end-to-end metric, or
// with trace every per-layer metric, by name with its unit.
func resultLine(rep workloadReport, trace bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if trace && rep.TracedReps == 0 {
		return "", fmt.Errorf("%s: no traced repetition completed", rep.Name)
	}
	metrics := map[string]value{}
	if trace {
		for _, m := range perLayer {
			metrics[m.Name] = value{rep.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{rep.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	return string(b), err
}

// printReport prints a workload's metrics as tables.
func printReport(w io.Writer, rep workloadReport) {
	fmt.Fprintf(w, "== %s  seed %d  %d repetitions (+%d traced) of %d ops  %d operations attempted, %d failed  correct=%v\n",
		rep.Name, rep.Seed, rep.Reps, rep.TracedReps, rep.OpsPerRep, rep.Attempted, rep.Failed, rep.Correct)
	fmt.Fprintf(w, "   output digest %.16s, checked against %s\n", rep.Digest, rep.DigestCheckedBy)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "   %-14s %-5s %12s %12s %12s %6s %7s\n", "metric", "unit", "median", "p25", "p75", "n", "spread")
	row := func(name string, s summary) {
		fmt.Fprintf(w, "   %-14s %-5s %12.6g %12.6g %12.6g %6d %6.1f%%\n",
			name, s.Unit, s.Median, s.P25, s.P75, s.N, 100*s.spread())
	}
	for _, m := range endToEnd {
		row(m.Name, rep.EndToEnd[m.Name])
	}
	row("host.ref_ms", rep.HostRefMs)
	if len(rep.PerLayer) == 0 {
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "   traced: %d profile samples; layer CPU shares:\n", rep.Samples)
	for _, l := range layerNames {
		if v := rep.PerLayer[l+".cpu_share"]; v > 0 {
			fmt.Fprintf(w, "   %-16s %6.1f%%  %s\n", l, 100*v, strings.Repeat("#", int(v*50+0.5)))
		}
	}
	var names []string
	for k := range rep.PerLayer {
		if !strings.HasSuffix(k, ".cpu_share") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(w, "   traced: per-layer metrics")
	for _, k := range names {
		fmt.Fprintf(w, "   %-34s %-6s %14.6g\n", k, unitOf(k), rep.PerLayer[k])
	}
	fmt.Fprintln(w)
}
