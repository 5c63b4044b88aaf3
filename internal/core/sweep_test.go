package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/pybuf"
)

func TestSweepRunsVariantsInOrder(t *testing.T) {
	sw := Sweep{
		Base: quickOpts(Latency, ModeC),
		Variants: []Variant{
			{Name: "baseline"},
			{Name: "python", Mutate: func(o *Options) { o.Mode = ModePy }},
			{Name: "pickle", Mutate: func(o *Options) { o.Mode = ModePickle }},
		},
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("reports: %d", len(res.Reports))
	}
	names := []string{"baseline", "python", "pickle"}
	for i, rep := range res.Reports {
		if rep.Series.Name != names[i] {
			t.Errorf("report %d named %q", i, rep.Series.Name)
		}
	}
	// Ordering of cost: baseline < python < pickle at the largest size.
	sz := 64 * 1024
	b, _ := res.Reports[0].Series.Get(sz)
	p, _ := res.Reports[1].Series.Get(sz)
	k, _ := res.Reports[2].Series.Get(sz)
	if !(b.AvgUs < p.AvgUs && p.AvgUs < k.AvgUs) {
		t.Errorf("cost ordering broken: %v %v %v", b.AvgUs, p.AvgUs, k.AvgUs)
	}
}

func TestSweepTableAndSeries(t *testing.T) {
	sw := Sweep{
		Base: quickOpts(Latency, ModeC),
		Variants: []Variant{
			{Name: "A"},
			{Name: "B", Mutate: func(o *Options) { o.Mode = ModePy; o.Buffer = pybuf.NumPy }},
		},
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series()) != 2 {
		t.Fatal("series missing")
	}
	tab := res.Table("demo", "latency(us)")
	out := tab.Render()
	for _, want := range []string{"demo", "A", "B"} {
		if !strings.Contains(out, want) {
			t.Errorf("table misses %q", want)
		}
	}
}

// algorithmSweep builds a sweep whose variants force every registered
// allgather algorithm plus a mode change -- enough variety to catch
// cross-variant interference.
func algorithmSweep(workers int) Sweep {
	base := quickOpts(Allgather, ModeC)
	base.Ranks, base.PPN = 8, 4
	return Sweep{
		Base:    base,
		Workers: workers,
		Variants: []Variant{
			{Name: "default"},
			{Name: "rd", Mutate: func(o *Options) { o.Algorithms = map[string]string{"allgather": "rd"} }},
			{Name: "bruck", Mutate: func(o *Options) { o.Algorithms = map[string]string{"allgather": "bruck"} }},
			{Name: "ring", Mutate: func(o *Options) { o.Algorithms = map[string]string{"allgather": "ring"} }},
			{Name: "py", Mutate: func(o *Options) { o.Mode = ModePy }},
		},
	}
}

// TestSweepParallelBitIdentical: the worker pool must return reports in
// declaration order, bit-identical to a serial sweep.
func TestSweepParallelBitIdentical(t *testing.T) {
	serial, err := algorithmSweep(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, -1} {
		parallel, err := algorithmSweep(workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel.Reports) != len(serial.Reports) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(parallel.Reports), len(serial.Reports))
		}
		for i := range serial.Reports {
			if !reflect.DeepEqual(serial.Reports[i].Series, parallel.Reports[i].Series) {
				t.Errorf("workers=%d variant %d (%s): parallel series differs from serial",
					workers, i, serial.Reports[i].Series.Name)
			}
		}
	}
}

// TestSweepForcedAlgorithmChangesNumbers: the ablation dimension is real --
// forcing ring on a small allgather must produce different latencies than
// the default recursive doubling, while forcing the default's own pick
// must not change anything.
func TestSweepForcedAlgorithmChangesNumbers(t *testing.T) {
	res, err := algorithmSweep(4).Run()
	if err != nil {
		t.Fatal(err)
	}
	def, rd, ring := res.Reports[0].Series, res.Reports[1].Series, res.Reports[3].Series
	sz := 8 // tiny: default policy picks recursive doubling on 8 ranks
	d, _ := def.Get(sz)
	r, _ := rd.Get(sz)
	g, _ := ring.Get(sz)
	if d.AvgUs != r.AvgUs {
		t.Errorf("forcing the default algorithm changed latency: %v vs %v", d.AvgUs, r.AvgUs)
	}
	if d.AvgUs == g.AvgUs {
		t.Errorf("forcing ring did not change latency (%v)", d.AvgUs)
	}
}

func TestOptionsAlgorithmsValidation(t *testing.T) {
	opts := quickOpts(Allgather, ModeC)
	opts.Algorithms = map[string]string{"allgather": "warp_drive"}
	if _, err := Run(opts); err == nil {
		t.Error("unknown algorithm must fail Run")
	}
	opts.Algorithms = map[string]string{"warp": "ring"}
	if _, err := Run(opts); err == nil {
		t.Error("unknown collective must fail Run")
	}
	if _, err := ParseAlgorithmList("allgather=ring,allreduce=rd"); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
	if m, _ := ParseAlgorithmList("allreduce=raben"); m["allreduce"] != "rabenseifner" {
		t.Errorf("alias not canonicalised: %v", m)
	}
	for _, bad := range []string{"", "ring", "allgather=warp", "warp=ring"} {
		if _, err := ParseAlgorithmList(bad); err == nil {
			t.Errorf("list %q should fail", bad)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := (Sweep{Base: quickOpts(Latency, ModeC)}).Run(); err == nil {
		t.Error("empty sweep should fail")
	}
	sw := Sweep{
		Base: quickOpts(Latency, ModeC),
		Variants: []Variant{
			{Name: "broken", Mutate: func(o *Options) { o.Ranks = 7 }},
		},
	}
	if _, err := sw.Run(); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Errorf("variant error not surfaced: %v", err)
	}
}
