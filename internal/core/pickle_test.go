package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/pybuf"
)

// TestPickleRunReleasesItsBuffers pins what a pickle-mode run leaves in the
// rank-state slab it hands back for the next run: every device object the
// harness received is freed (bcast and allreduce, every GPU library), and
// the binding communicator, with its send frame, and the receive frame are
// dropped, so their storage is garbage once the run returns. The pool
// reuses a slab by capacity, so a larger run goes first: the 4-rank runs
// take its 16-entry slab, and the entries past the ones they used must
// hold nothing, from the larger run or any other.
func TestPickleRunReleasesItsBuffers(t *testing.T) {
	const ranks = 4
	for _, lib := range pybuf.GPULibraries() {
		for _, b := range []Benchmark{Bcast, Allreduce} {
			opts := Options{
				Benchmark: b, Cluster: "bridges2", Mode: ModePickle, Buffer: lib, UseGPU: true,
				Ranks: 4 * ranks, PPN: 2 * ranks, MaxSize: 4096, Iters: 2, Warmup: 1,
			}
			if _, err := Run(opts); err != nil {
				t.Fatalf("%v %s at %d ranks: %v", lib, b, opts.Ranks, err)
			}
			opts.Ranks, opts.PPN = ranks, ranks
			if _, err := Run(opts); err != nil {
				t.Fatalf("%v %s: %v", lib, b, err)
			}
			slab := rankStatePool.slab
			if len(slab) != ranks || cap(slab) < 4*ranks {
				t.Fatalf("%v %s: pooled slab has %d ranks of capacity %d, want %d of at least %d",
					lib, b, len(slab), cap(slab), ranks, 4*ranks)
			}
			for r := range slab {
				o := &slab[r].o
				if used := o.gpu.MemUsed(); used != 0 {
					t.Errorf("%v %s: rank %d ends the run with %d device bytes in use", lib, b, r, used)
				}
				if o.py != nil || o.rraw != nil || o.sbuf != nil {
					t.Errorf("%v %s: rank %d keeps its communicator or buffers past the run", lib, b, r)
				}
			}
			for r, st := range slab[ranks:cap(slab)] {
				if !reflect.ValueOf(st).IsZero() {
					t.Errorf("%v %s: pooled slab entry %d past the run's ranks is not zero", lib, b, ranks+r)
				}
			}
		}
	}
}

// TestRankStatesReusedByCapacity pins the rank-state pool's reuse: a
// smaller run after a larger one takes the retained slab without
// allocating, zeroed, and leaves the retained slab's tail zero.
func TestRankStatesReusedByCapacity(t *testing.T) {
	big := takeRankStates(16)
	for i := range big {
		big[i].b.size = i + 1
	}
	putRankStates(big)
	allocs := testing.AllocsPerRun(10, func() {
		small := takeRankStates(8)
		if &small[0] != &big[0] {
			t.Fatal("a smaller run did not take the retained slab")
		}
		for i := range small {
			small[i].b.size = i + 1
		}
		putRankStates(small)
	})
	if allocs != 0 {
		t.Errorf("taking the retained slab for a smaller run allocates %.1f times, want 0", allocs)
	}
	for i, st := range big {
		if i >= 8 && !reflect.ValueOf(st).IsZero() {
			t.Errorf("entry %d past the smaller run's ranks keeps the larger run's state", i)
		}
	}
}

// TestRankStateFootprint bounds one rank's benchmark-loop state, which a
// 16Ki-rank sweep holds once per rank: the adapter and the Bench point at
// the run's one Options instead of each holding a copy (744 B with the
// copies).
func TestRankStateFootprint(t *testing.T) {
	const ceiling = 256
	got := unsafe.Sizeof(rankState{})
	t.Logf("rankState %d B (ceiling %d B)", got, ceiling)
	if got > ceiling {
		t.Errorf("a rank's benchmark-loop state takes %d B, ceiling %d B", got, ceiling)
	}
}
