package core

import (
	"testing"

	"repro/internal/pybuf"
)

// TestPickleRunReleasesItsBuffers pins what a pickle-mode run leaves in the
// rank-state slab it hands back for the next run: every device object the
// harness received is freed (bcast and allreduce, every GPU library), and
// the binding communicator, with its send frame, and the receive frame are
// dropped, so their storage is garbage once the run returns.
func TestPickleRunReleasesItsBuffers(t *testing.T) {
	const ranks = 4
	for _, lib := range pybuf.GPULibraries() {
		for _, b := range []Benchmark{Bcast, Allreduce} {
			opts := Options{
				Benchmark: b, Cluster: "bridges2", Mode: ModePickle, Buffer: lib, UseGPU: true,
				Ranks: ranks, PPN: ranks, MaxSize: 4096, Iters: 2, Warmup: 1,
			}
			if _, err := Run(opts); err != nil {
				t.Fatalf("%v %s: %v", lib, b, err)
			}
			slab := rankStatePool.slab
			if len(slab) != ranks {
				t.Fatalf("%v %s: pooled slab has %d ranks, want %d", lib, b, len(slab), ranks)
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
		}
	}
}
