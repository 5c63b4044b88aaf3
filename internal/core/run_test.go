package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
	"repro/internal/stats"
)

// quickOpts returns fast options for correctness-focused runs.
func quickOpts(b Benchmark, mode Mode) Options {
	return Options{
		Benchmark:  b,
		Mode:       mode,
		Buffer:     pybuf.NumPy,
		Ranks:      2,
		PPN:        1,
		MinSize:    8,
		MaxSize:    64 * 1024,
		Iters:      10,
		Warmup:     2,
		LargeIters: 3, LargeWarmup: 1,
	}
}

func TestLatencyRunsAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeC, ModePy, ModePickle} {
		rep, err := Run(quickOpts(Latency, mode))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(rep.Series.Rows) == 0 {
			t.Fatalf("mode %v: empty series", mode)
		}
		for _, r := range rep.Series.Rows {
			if r.AvgUs <= 0 || math.IsNaN(r.AvgUs) {
				t.Errorf("mode %v size %d: bad latency %v", mode, r.Size, r.AvgUs)
			}
		}
	}
}

func TestLatencyDeterministic(t *testing.T) {
	a, err := Run(quickOpts(Latency, ModePy))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickOpts(Latency, ModePy))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Series.Rows, b.Series.Rows) {
		t.Fatal("repeated runs differ; virtual timing is not deterministic")
	}
}

func TestPyModeSlowerThanC(t *testing.T) {
	c, err := Run(quickOpts(Latency, ModeC))
	if err != nil {
		t.Fatal(err)
	}
	py, err := Run(quickOpts(Latency, ModePy))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range py.Series.Rows {
		base, ok := c.Series.Get(r.Size)
		if !ok {
			t.Fatalf("size %d missing from C series", r.Size)
		}
		if r.AvgUs <= base.AvgUs {
			t.Errorf("size %d: OMB-Py %v us not above OMB %v us", r.Size, r.AvgUs, base.AvgUs)
		}
	}
}

func TestPickleSlowerThanDirect(t *testing.T) {
	py, err := Run(quickOpts(Latency, ModePy))
	if err != nil {
		t.Fatal(err)
	}
	pk, err := Run(quickOpts(Latency, ModePickle))
	if err != nil {
		t.Fatal(err)
	}
	over := stats.AvgOverheadUs(&pk.Series, &py.Series)
	if over <= 0 {
		t.Errorf("pickle overhead %v us, want positive", over)
	}
	// Divergence: pickle overhead at 64 KiB must exceed overhead at 8 B.
	small, _ := pk.Series.Get(8)
	smallBase, _ := py.Series.Get(8)
	large, _ := pk.Series.Get(64 * 1024)
	largeBase, _ := py.Series.Get(64 * 1024)
	if (large.AvgUs - largeBase.AvgUs) <= (small.AvgUs - smallBase.AvgUs) {
		t.Errorf("pickle overhead does not grow with size: small %.3f large %.3f",
			small.AvgUs-smallBase.AvgUs, large.AvgUs-largeBase.AvgUs)
	}
}

func TestBandwidthMonotoneAndBounded(t *testing.T) {
	opts := quickOpts(Bandwidth, ModeC)
	opts.MaxSize = 1 << 20
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, r := range rep.Series.Rows {
		if r.MBps <= 0 {
			t.Fatalf("size %d: bandwidth %v", r.Size, r.MBps)
		}
		if r.Size >= 64*1024 && r.MBps < prev*0.5 {
			t.Errorf("size %d: bandwidth collapsed: %v after %v", r.Size, r.MBps, prev)
		}
		prev = r.MBps
	}
	// Peak must approach but not exceed the modelled link bandwidth.
	last := rep.Series.Rows[len(rep.Series.Rows)-1]
	if last.MBps > 12.4*1024 {
		t.Errorf("peak bandwidth %v MB/s exceeds the 12.4 GB/s fabric", last.MBps)
	}
	if last.MBps < 6000 {
		t.Errorf("peak bandwidth %v MB/s too far below the fabric limit", last.MBps)
	}
}

func TestAllCollectivesRunBothModes(t *testing.T) {
	for _, b := range Benchmarks() {
		if b.Kind() == KindPtPt {
			continue
		}
		for _, mode := range []Mode{ModeC, ModePy} {
			if b.Kind() == KindOverlap && mode != ModeC {
				continue // overlap benchmarks are C-mode only
			}
			if !b.spec().SupportsMode(mode) {
				continue // e.g. fault scenarios are C-mode only
			}
			opts := quickOpts(b, mode)
			opts.Ranks, opts.PPN = 8, 4
			opts.MaxSize = 16 * 1024
			if b.spec().Group == groupFault {
				// Fault scenarios refuse to run without a plan; a small
				// noise plan keeps them on the clean path through the
				// latency pipeline.
				opts.Faults = "noise:sigma=1us"
			}
			rep, err := Run(opts)
			if err != nil {
				t.Fatalf("%s %v: %v", b, mode, err)
			}
			if len(rep.Series.Rows) == 0 {
				t.Fatalf("%s %v: empty series", b, mode)
			}
			for _, r := range rep.Series.Rows {
				if r.AvgUs <= 0 && b != Barrier {
					t.Errorf("%s %v size %d: latency %v", b, mode, r.Size, r.AvgUs)
				}
				if r.MinUs > r.AvgUs+1e-9 || r.AvgUs > r.MaxUs+1e-9 {
					t.Errorf("%s %v size %d: min %v avg %v max %v out of order",
						b, mode, r.Size, r.MinUs, r.AvgUs, r.MaxUs)
				}
			}
		}
	}
}

// TestTimingOnlyMatchesData pins that a timing-only run reports the data
// run's rows: every registered benchmark in C and Py mode where it runs
// them (at its inventory placement and fault plan), Py mode over a GPU
// library, and a Py allreduce over sizes that are not whole float32
// elements.
func TestTimingOnlyMatchesData(t *testing.T) {
	var cases []Options
	for _, b := range Benchmarks() {
		spec, err := LookupBenchmark(string(b))
		if err != nil {
			t.Fatal(err)
		}
		ranks, _, faults := spec.InventoryConfig()
		for _, mode := range []Mode{ModeC, ModePy} {
			if !spec.SupportsMode(mode) {
				continue
			}
			opts := quickOpts(b, mode)
			opts.Ranks, opts.PPN, opts.Faults = ranks, 2, faults
			opts.MinSize, opts.MaxSize = 1, 128*1024
			opts.Iters, opts.Warmup = 3, 1
			cases = append(cases, opts)
		}
	}
	for _, b := range []Benchmark{Latency, Allreduce} {
		opts := quickOpts(b, ModePy)
		opts.Cluster, opts.UseGPU, opts.Buffer = "bridges2", true, pybuf.CuPy
		opts.Ranks, opts.PPN = 2, 1
		if b != Latency {
			opts.Ranks, opts.PPN = 4, 2
		}
		opts.MinSize, opts.MaxSize = 1, 1<<20
		cases = append(cases, opts)
	}
	ragged := quickOpts(Allreduce, ModePy)
	ragged.Ranks, ragged.Sizes = 4, []int{5, 6, 4097, 40001}
	cases = append(cases, ragged)

	for _, opts := range cases {
		name := fmt.Sprintf("%s %s %s on %d ranks", opts.Benchmark, opts.Mode, opts.Buffer, opts.Ranks)
		withData, err := Run(opts)
		if err != nil {
			t.Errorf("%s, data: %v", name, err)
			continue
		}
		opts.TimingOnly = true
		timing, err := Run(opts)
		if err != nil {
			t.Errorf("%s, timing-only: %v", name, err)
			continue
		}
		if len(withData.Series.Rows) == 0 || withData.Failure != nil {
			t.Errorf("%s: data run reported %d rows, failure %v", name, len(withData.Series.Rows), withData.Failure)
		}
		if !reflect.DeepEqual(withData.Series.Rows, timing.Series.Rows) {
			t.Errorf("%s: timing-only diverges from data run\n data:   %+v\n timing: %+v",
				name, withData.Series.Rows, timing.Series.Rows)
		}
	}
}

func TestGPUBufferHierarchy(t *testing.T) {
	// CuPy ~ PyCUDA < Numba overhead, the paper's GPU finding.
	base := Options{
		Benchmark: Latency, Mode: ModeC, Cluster: "bridges2",
		Ranks: 2, PPN: 1, UseGPU: true,
		MinSize: 8, MaxSize: 8 * 1024, Iters: 10, Warmup: 2,
	}
	c, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	over := map[pybuf.Library]float64{}
	for _, lib := range pybuf.GPULibraries() {
		opts := base
		opts.Mode = ModePy
		opts.Buffer = lib
		rep, err := Run(opts)
		if err != nil {
			t.Fatalf("%v: %v", lib, err)
		}
		over[lib] = stats.AvgOverheadUs(&rep.Series, &c.Series)
		if over[lib] <= 0 {
			t.Errorf("%v: overhead %v not positive", lib, over[lib])
		}
	}
	if !(over[pybuf.Numba] > over[pybuf.CuPy] && over[pybuf.Numba] > over[pybuf.PyCUDA]) {
		t.Errorf("Numba overhead %v should exceed CuPy %v and PyCUDA %v",
			over[pybuf.Numba], over[pybuf.CuPy], over[pybuf.PyCUDA])
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []Options{
		{Benchmark: "nope"},
		{Benchmark: Latency, Ranks: 4},                            // pt2pt needs 2
		{Benchmark: MultiLatency, Ranks: 5},                       // odd
		{Benchmark: Gather, Mode: ModePickle, Ranks: 4},           // pickle unsupported
		{Benchmark: Latency, Mode: ModePy, Buffer: pybuf.CuPy},    // GPU lib without GPU
		{Benchmark: Latency, Ranks: 2, MinSize: 1024, MaxSize: 8}, // inverted sizes
		// Pickle mode serializes real objects, so never timing-only.
		{Benchmark: Allreduce, Mode: ModePickle, Ranks: 4, TimingOnly: true},
		{Benchmark: Bcast, Mode: ModePickle, Ranks: 4, TimingOnly: true},
		{Benchmark: Latency, Mode: ModePickle, Cluster: "bridges2", UseGPU: true, Buffer: pybuf.CuPy, TimingOnly: true},
		{Benchmark: BiBandwidth, Mode: ModePickle}, // the pickled exchange deadlocks
	}
	for i, o := range cases {
		// Each is refused by validation, before any rank runs.
		if err := o.withDefaults().validate(); err == nil || !strings.HasPrefix(err.Error(), "core: ") {
			t.Errorf("case %d (%+v): validate = %v, want a core: error", i, o, err)
		}
		if _, err := Run(o); err == nil {
			t.Errorf("case %d (%+v): expected error", i, o)
		}
	}
	o := Options{Benchmark: Allreduce, Mode: ModePickle, Ranks: 4, TimingOnly: true}
	if err := o.withDefaults().validate(); err == nil || !strings.Contains(err.Error(), "-mode py") {
		t.Errorf("timing-only pickle: validate = %v, want an error naming -mode py", err)
	}
}

// TestBytearrayNeedsUint8 pins that a data-carrying Python-mode run over
// bytearray buffers with a wider element type fails validation, before any
// simulation starts, and that the neighbouring valid shapes still pass.
func TestBytearrayNeedsUint8(t *testing.T) {
	for _, o := range []Options{
		{Benchmark: Allreduce, Mode: ModePy, Ranks: 4},
		{Benchmark: Allreduce, Mode: ModePy, Ranks: 4, Buffer: pybuf.Bytearray},
		{Benchmark: Latency, Mode: ModePickle, DType: mpi.Float64},
	} {
		err := o.withDefaults().validate()
		if err == nil || !strings.HasPrefix(err.Error(), "core: ") || !strings.Contains(err.Error(), "-buffer numpy") {
			t.Errorf("%s %s %v: validate = %v, want a core error naming -buffer numpy", o.Benchmark, o.Mode, o.DType, err)
		}
	}
	for _, o := range []Options{
		{Benchmark: Allreduce, Mode: ModeC, Ranks: 4},
		{Benchmark: Allreduce, Mode: ModePy, Ranks: 4, Buffer: pybuf.NumPy},
		{Benchmark: Allreduce, Mode: ModePy, Ranks: 4, TimingOnly: true},
		{Benchmark: Latency, Mode: ModePickle},
	} {
		if err := o.withDefaults().validate(); err != nil {
			t.Errorf("%s %s %v timing-only=%v: %v", o.Benchmark, o.Mode, o.Buffer, o.TimingOnly, err)
		}
	}
}

func TestIntelMPISlowerThanMVAPICH2(t *testing.T) {
	opts := quickOpts(Latency, ModePy)
	mv, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Impl = netmodel.IntelMPI
	impi, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	d := stats.AvgOverheadUs(&impi.Series, &mv.Series)
	if d <= 0 {
		t.Errorf("Intel MPI should trail MVAPICH2, got delta %v us", d)
	}
}

func TestBenchmarkKinds(t *testing.T) {
	if Latency.Kind() != KindPtPt || Allreduce.Kind() != KindCollective || Gatherv.Kind() != KindVector {
		t.Error("benchmark kinds misclassified")
	}
	if _, err := ParseBenchmark("allreduce"); err != nil {
		t.Error(err)
	}
	if _, err := ParseBenchmark("bogus"); err == nil {
		t.Error("bogus benchmark accepted")
	}
	if _, err := ParseMode("py"); err != nil {
		t.Error(err)
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestReduceRowAggregatesAcrossRanks(t *testing.T) {
	// Sanity-check min <= avg <= max on a multi-rank collective.
	opts := quickOpts(Allreduce, ModeC)
	opts.Ranks, opts.PPN = 16, 4
	opts.MinSize, opts.MaxSize = 4, 4096
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Series.Rows {
		if !(r.MinUs <= r.AvgUs && r.AvgUs <= r.MaxUs) {
			t.Errorf("size %d: min %v avg %v max %v", r.Size, r.MinUs, r.AvgUs, r.MaxUs)
		}
	}
	_ = mpi.OpSum // keep the import grouped with runtime types used above
}
