package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestRegistryCoversEveryFigureAndTable(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
		"fig24", "fig25", "fig26", "fig27", "fig28", "fig29", "fig30",
		"fig31", "fig32", "fig33", "fig34",
		"algo_bcast", "algo_allreduce", "algo_allgather", "algo_alltoall",
		"algo_reduce_scatter", "algo_overlap", "algo_crossover_scan",
		"algo_noise", "algo_autotune",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from the registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig2" || e.run == nil {
		t.Errorf("ByID returned %+v", e)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id should fail")
	}
	if _, err := ByID("FIG2"); err != nil {
		t.Error("lookup should be case-insensitive")
	}
}

func TestHeavyFlags(t *testing.T) {
	heavy := map[string]bool{"fig14": true, "fig15": true, "fig18": true, "fig19": true}
	for _, e := range All() {
		if e.Heavy != heavy[e.ID] {
			t.Errorf("%s: Heavy = %v", e.ID, e.Heavy)
		}
	}
}

// TestLightExperimentsShapeHolds runs a representative subset end-to-end
// and asserts the paper's qualitative findings (not exact numbers): OMB-Py
// overhead positive, within 3x of the paper's quoted statistic.
func TestLightExperimentsShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs take seconds each")
	}
	for _, id := range []string{"fig2", "fig8", "fig12", "fig20", "fig30"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Stats) == 0 {
			t.Fatalf("%s: no statistics", id)
		}
		for _, s := range res.Stats {
			if s.Measured <= 0 {
				t.Errorf("%s %q: measured %v not positive", id, s.Name, s.Measured)
			}
			if s.Paper > 0 {
				if r := s.Dev(); r < 1.0/3 || r > 3 {
					t.Errorf("%s %q: ratio %0.2f outside [1/3, 3] (paper %v, measured %v)",
						id, s.Name, r, s.Paper, s.Measured)
				}
			}
		}
	}
}

// TestTable2RunsEveryBenchmark runs the whole registry inventory, the fault
// family included, and checks the paper statistic counts exactly the 17
// Table II benchmarks rather than every registered one.
func TestTable2RunsEveryBenchmark(t *testing.T) {
	e, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 1 || res.Stats[0].Measured != 17 {
		t.Errorf("table2 stats = %+v, want one stat measuring 17", res.Stats)
	}
}

func TestResultRender(t *testing.T) {
	res := &Result{
		ID:    "demo",
		Title: "demo title",
		Stats: []Stat{{Name: "x", Paper: 2, Measured: 1, Unit: "us"}},
		Notes: "a note",
	}
	out := res.Render()
	for _, want := range []string{"demo title", "statistic", "0.50", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render misses %q:\n%s", want, out)
		}
	}
}

func TestStatDev(t *testing.T) {
	if (Stat{Paper: 2, Measured: 1}).Dev() != 0.5 {
		t.Error("Dev wrong")
	}
	if (Stat{Paper: 0, Measured: 1}).Dev() != 0 {
		t.Error("Dev with zero paper should be 0")
	}
}

// TestFailedRunFailsExperiment pins that an experiment refuses to report
// on a failed run: a kill plan or an expired budget in its Defaults is an
// error naming the failure code, not a table of NaN statistics.
func TestFailedRunFailsExperiment(t *testing.T) {
	e, err := ByID("fig16")
	if err != nil {
		t.Fatal(err)
	}
	for code, d := range map[string]core.Defaults{
		"MPI_ERR_PROC_FAILED": {Faults: "kill:rank=3,after=2:allgather"},
		"timeout":             {Timeout: time.Nanosecond},
	} {
		if _, err := e.RunWith(d); err == nil || !strings.Contains(err.Error(), code) {
			t.Errorf("%+v: experiment error %v, want one naming %s", d, err, code)
		}
	}
}
