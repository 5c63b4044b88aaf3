// Package experiments reproduces every figure and table of the paper's
// evaluation (Section IV): each experiment runs the same benchmark
// configuration the paper describes, emits the series the figure plots, and
// reports the summary statistic the paper quotes next to our measured value
// so the reproduction quality is visible at a glance.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pybuf"
	"repro/internal/stats"
)

// Message-size ranges follow the paper's small/large split.
const (
	SmallMin = 1
	SmallMax = 8 * 1024
	LargeMin = 16 * 1024
	LargeMax = 1 << 20
	BWMax    = 4 << 20
	// HugeLargeMax caps the large range of the 896-rank experiments, whose
	// figures the paper cuts at 32 KiB anyway (Figure 19 quotes 32 KiB).
	HugeLargeMax = 128 * 1024
)

// Stat is one paper-vs-measured comparison.
type Stat struct {
	Name     string
	Paper    float64
	Measured float64
	Unit     string
}

// Dev returns the measured/paper ratio (1.0 = exact).
func (s Stat) Dev() float64 {
	if s.Paper == 0 {
		return 0
	}
	return s.Measured / s.Paper
}

// Result is the outcome of one experiment.
type Result struct {
	ID    string
	Title string
	Table stats.Table
	Stats []Stat
	Notes string
}

// Render pretty-prints the result.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	sb.WriteString(r.Table.Render())
	if len(r.Stats) > 0 {
		fmt.Fprintf(&sb, "%-44s %12s %12s %8s\n", "statistic", "paper", "measured", "ratio")
		for _, s := range r.Stats {
			fmt.Fprintf(&sb, "%-44s %9.2f %s %9.2f %s %8.2f\n",
				s.Name, s.Paper, s.Unit, s.Measured, s.Unit, s.Dev())
		}
	}
	if r.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", r.Notes)
	}
	return sb.String()
}

// Experiment is a runnable reproduction of one figure or table.
type Experiment struct {
	ID    string
	Title string
	// Heavy marks the 896-rank full-subscription runs.
	Heavy bool
	run   func(d core.Defaults) (*Result, error)
}

// Run runs the experiment under the zero Defaults.
func (e Experiment) Run() (*Result, error) { return e.run(core.Defaults{}) }

// RunWith runs the experiment with every run it issues under d, the
// defaults ombrepro builds from its flags; a failed run fails it.
func (e Experiment) RunWith(d core.Defaults) (*Result, error) { return e.run(d) }

var registry = map[string]Experiment{}
var order []string

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[strings.ToLower(id)]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs lists experiment ids in registration (paper) order.
func IDs() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// runPair runs base under OMB (C) and OMB-Py (numpy buffers unless base
// names a library) as a two-variant sweep, so ombrepro's -parallel flag
// overlaps them on the sweep engine's worker pool.
func runPair(d core.Defaults, base core.Options) (omb, ombpy *stats.Series, err error) {
	lib := base.Buffer
	if lib == pybuf.Bytearray && !base.UseGPU {
		lib = pybuf.NumPy
	}
	base.Buffer = pybuf.Bytearray // ignored by the C path
	res, err := runSweep(d, core.Sweep{Base: base, Variants: []core.Variant{
		{Name: "OMB"},
		{Name: "OMB-Py", Mutate: func(o *core.Options) { o.Mode, o.Buffer = core.ModePy, lib }},
	}})
	if err != nil {
		return nil, nil, err
	}
	return &res.Reports[0].Series, &res.Reports[1].Series, nil
}

// runSweep runs sw with every variant under d. Every experiment run takes
// this path, and a run that failed is an error naming its failure code: no
// figure can be drawn from it.
func runSweep(d core.Defaults, sw core.Sweep) (*core.SweepResult, error) {
	sw.Defaults = d
	res, err := sw.Run()
	if err != nil {
		return nil, err
	}
	for _, rep := range res.Reports {
		if f := rep.Failure; f != nil {
			return nil, fmt.Errorf("experiments: %s run failed: %s: %s", rep.Options.Benchmark, f.Code, f.Message)
		}
	}
	return res, nil
}

// runOptions runs one configuration under d, as a one-variant sweep.
func runOptions(d core.Defaults, opts core.Options) (*core.Report, error) {
	res, err := runSweep(d, core.Sweep{Base: opts, Variants: []core.Variant{{}}})
	if err != nil {
		return nil, err
	}
	return res.Reports[0], nil
}
