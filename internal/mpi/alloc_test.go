package mpi

import (
	"reflect"
	"testing"
	"unsafe"
)

// Allocation-regression tests pinning the zero-allocation fast path. Each
// measured run builds a fresh world, so runs carry a fixed construction
// cost (mailboxes, goroutines, pool warm-up); the tests therefore compare
// runs of k and 2k operations and bound the *marginal* allocations per
// operation, which is exactly the steady-state cost the pools are supposed
// to hold at zero. The pre-pooling engine spent ~4 allocs per eager
// message and tens per collective invocation, so these budgets fail loudly
// if pooling rots.

// marginalAllocsPerOp returns (allocs(2k ops) - allocs(k ops)) / k.
func marginalAllocsPerOp(t *testing.T, k int, run func(iters int)) float64 {
	t.Helper()
	base := testing.AllocsPerRun(3, func() { run(k) })
	double := testing.AllocsPerRun(3, func() { run(2 * k) })
	return (double - base) / float64(k)
}

func TestEagerSendRecvAllocs(t *testing.T) {
	pingPong := func(iters int) {
		w := testWorld(t, 2, 2)
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			buf := make([]byte, 1024)
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					if err := c.Send(buf, 1, 1); err != nil {
						return err
					}
					if _, err := c.Recv(buf, 1, 1); err != nil {
						return err
					}
				} else {
					if _, err := c.Recv(buf, 0, 1); err != nil {
						return err
					}
					if err := c.Send(buf, 0, 1); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	// Steady state is zero allocations per round trip (two eager 1 KiB
	// messages with payload copies); the pre-pooling engine measured ~4.
	if per := marginalAllocsPerOp(t, 200, pingPong); per > 0.5 {
		t.Errorf("eager ping-pong allocates %.2f allocs/op, want <= 0.5", per)
	}
}

func TestIsendIrecvWindowAllocs(t *testing.T) {
	const window, n = 16, 1024
	windowed := func(iters int) {
		w := testWorld(t, 2, 2)
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			buf := make([]byte, n)
			reqs := make([]*Request, window)
			// The osu_bw shape, ack included: without the per-window ack an
			// all-eager sender runs unboundedly ahead of the receiver and
			// the in-flight envelope population never reaches steady state.
			for i := 0; i < iters; i++ {
				for k := range reqs {
					var err error
					if c.Rank() == 0 {
						reqs[k], err = c.Isend(buf, 1, 2)
					} else {
						reqs[k], err = c.Irecv(buf, 0, 2)
					}
					if err != nil {
						return err
					}
				}
				if err := Waitall(reqs); err != nil {
					return err
				}
				if c.Rank() == 0 {
					if _, err := c.RecvN(nil, 4, 1, 3); err != nil {
						return err
					}
				} else if err := c.SendN(nil, 4, 0, 3); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	// One op is a full window of Isend/Irecv + Waitall; pooled Requests
	// make the steady state allocation-free.
	if per := marginalAllocsPerOp(t, 100, windowed); per > 0.5 {
		t.Errorf("Isend/Irecv window allocates %.2f allocs/op, want <= 0.5", per)
	}
}

func TestIallreduceAllocs(t *testing.T) {
	iallreduce := func(iters int) {
		w := testWorld(t, 8, 4)
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			sbuf := make([]byte, 4096)
			rbuf := make([]byte, 4096)
			for i := 0; i < iters; i++ {
				req, err := c.Iallreduce(sbuf, rbuf, Float32, OpSum)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	// Collective Requests and their compiled schedules ride the per-rank
	// freelists and the scratch arena: zero marginal allocations per op.
	if per := marginalAllocsPerOp(t, 100, iallreduce); per > 1.0 {
		t.Errorf("8-rank Iallreduce allocates %.2f allocs/op, want <= 1.0", per)
	}
}

func TestAllreduceAllocs(t *testing.T) {
	allreduce := func(iters int) {
		w := testWorld(t, 8, 4)
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			sbuf := make([]byte, 4096)
			rbuf := make([]byte, 4096)
			for i := 0; i < iters; i++ {
				if err := c.Allreduce(sbuf, rbuf, Float32, OpSum); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	// 8 ranks used to cost tens of allocations per invocation (staging
	// buffers, schedules, envelopes); pooled steady state is zero.
	if per := marginalAllocsPerOp(t, 100, allreduce); per > 1.0 {
		t.Errorf("8-rank allreduce allocates %.2f allocs/op, want <= 1.0", per)
	}
}

// coldRanks returns the world communicators of a fresh set of ranks of w,
// ranks that have never compiled a schedule, as a cold world's fold probe
// meets them.
func coldRanks(w *World) []*Comm {
	procs := make([]Proc, w.size)
	comms := make([]*Comm, w.size)
	for r := range procs {
		procs[r].world, procs[r].rank = w, r
		comms[r] = procs[r].CommWorld()
	}
	return comms
}

// TestProbeCompileAllocs pins the fold probe's compile pass: once the
// probe's reused schedule has grown, compiling every rank's schedule of a
// 1024-rank world allocates nothing, even on ranks that never compiled
// before. The schedules of internal/collective are computed round by round
// and the builders keep no per-rank copy of them. Each measured pass runs
// on a fresh set of ranks, so a per-rank memo would show up as one
// allocation per rank.
func TestProbeCompileAllocs(t *testing.T) {
	const p = 1024
	w := testWorld(t, p, p/16)
	defer w.Release()
	sets := [][]*Comm{coldRanks(w), coldRanks(w), coldRanks(w)}
	alg := func(coll Collective, name string) *Algorithm {
		a, err := LookupAlgorithm(coll, name)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := []struct {
		name string
		alg  *Algorithm
		call collCall
	}{
		{"allreduce/rabenseifner", alg(CollAllreduce, "rabenseifner"), collCall{n: 64 << 10, dt: Float32, op: OpSum}},
		{"allreduce/recursive_doubling", alg(CollAllreduce, "recursive_doubling"), collCall{n: 16 << 10, dt: Float32, op: OpSum}},
		{"reduce_scatter/recursive_halving", alg(CollReduceScatter, "recursive_halving"), collCall{n: 64, dt: Float32, op: OpSum}},
		{"allgather/bruck", alg(CollAllgather, "bruck"), collCall{n: 64}},
		{"barrier/dissemination", alg(collBarrier, "dissemination"), collCall{}},
		{"bcast/binomial", alg(CollBcast, "binomial"), collCall{n: 4096, root: 3}},
		{"bcast/scatter_ring", alg(CollBcast, "scatter_ring"), collCall{n: 1 << 20, root: 3}},
		{"reduce/binomial", alg(collReduce, "binomial"), collCall{n: 4096, dt: Float32, op: OpSum, root: 3}},
		{"gather/binomial", alg(collGather, "binomial"), collCall{n: 4096, root: 3}},
		{"scatter/binomial", alg(collScatter, "binomial"), collCall{n: 4096, root: 3}},
		{"scan/distance_doubling", alg(collScan, "distance_doubling"), collCall{n: 4096, dt: Float32, op: OpSum}},
		{"exscan/distance_doubling", alg(collExscan, "distance_doubling"), collCall{n: 4096, dt: Float32, op: OpSum}},
	}
	var probe collSched
	for _, tc := range cases {
		compile := func(comms []*Comm) {
			for _, c := range comms {
				probe.c = c
				probe.steps = probe.steps[:0]
				probe.dt, probe.op = tc.call.dt, tc.call.op
				if err := tc.alg.build(c, tc.call, &probe); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		}
		compile(sets[0])
		next := 1
		allocs := testing.AllocsPerRun(1, func() {
			compile(sets[next])
			next++
		})
		if allocs != 0 {
			t.Errorf("%s: compiling %d cold ranks allocates %.0f times, want 0", tc.name, p, allocs)
		}
	}
}

// TestSlabsReusedByCapacity pins the cross-world slab pools' reuse: a
// smaller world after a larger one takes the retained slabs without
// allocating, zeroed, and the entries past the smaller world's ranks hold
// nothing of the larger one.
func TestSlabsReusedByCapacity(t *testing.T) {
	const big, small = 64, 16
	procs, ers := takeRankSlabs(big)
	mbs := takeMailboxSlab(big)
	for r := range big {
		procs[r].rank, ers[r].proc, mbs[r].size = r+1, &procs[r], big
	}
	putRankSlabs(procs, ers)
	putMailboxSlab(mbs)
	allocs := testing.AllocsPerRun(10, func() {
		p2, e2 := takeRankSlabs(small)
		m2 := takeMailboxSlab(small)
		if &p2[0] != &procs[0] || &e2[0] != &ers[0] || &m2[0] != &mbs[0] {
			t.Fatal("a smaller world did not take the retained slabs")
		}
		for r := range small {
			if p2[r].rank != 0 || e2[r].proc != nil || m2[r].size != 0 {
				t.Fatalf("rank %d: reused slab entry not zeroed", r)
			}
			p2[r].rank, e2[r].proc, m2[r].size = r+1, &p2[r], small
		}
		putRankSlabs(p2, e2)
		putMailboxSlab(m2)
	})
	if allocs != 0 {
		t.Errorf("taking the retained slabs for a smaller world allocates %.1f times, want 0", allocs)
	}
	for r := small; r < big; r++ {
		if procs[r].rank != 0 || ers[r].proc != nil || mbs[r].size != 0 {
			t.Errorf("entry %d past the smaller world's ranks keeps the larger world's state", r)
		}
	}
}

// TestSlabsKeepArenaClasses pins what a recycled slab keeps of an entry's
// staging arena: an entry the next world uses keeps its class tables,
// emptied, so a data-carrying world does not allocate them on every run;
// an entry past the next world's ranks drops them. The next world may be
// larger than the last, up to the slab's capacity.
func TestSlabsKeepArenaClasses(t *testing.T) {
	const big, small = 16, 4
	procs, ers := takeRankSlabs(big)
	mbs := takeMailboxSlab(big)
	putRankSlabs(procs[:small], ers[:small])
	putMailboxSlab(mbs[:small])
	procs, ers = takeRankSlabs(big)
	mbs = takeMailboxSlab(big)
	for _, r := range []int{1, 12} {
		procs[r].arena.put(make([]byte, 256))
		procs[r].arena.putInts(make([]int, 64))
		mbs[r].pay.put(make([]byte, 1024))
	}
	kept := [2]*scratchClasses{procs[1].arena.cls, mbs[1].pay.cls}
	putRankSlabs(procs, ers)
	putMailboxSlab(mbs)
	procs, _ = takeRankSlabs(8)
	mbs = takeMailboxSlab(8)
	if procs[1].arena.cls != kept[0] || mbs[1].pay.cls != kept[1] {
		t.Fatal("a recycled entry lost its arena's class tables")
	}
	for _, cls := range kept {
		if !reflect.ValueOf(*cls).IsZero() {
			t.Error("a recycled arena's class tables still hold the last world's buffers")
		}
	}
	procs = procs[:big]
	mbs = mbs[:big]
	if procs[12].arena.cls != nil || mbs[12].pay.cls != nil {
		t.Error("an entry past the smaller world's ranks keeps its class tables")
	}
}

// TestRankFootprint bounds what one rank of a world costs in its slabs
// before it does any work: its Proc, its mailbox and its event-loop entry.
// Every rank of a 16Ki-rank sweep pays it, so the bytes sum to the
// sweep's resident set; 5,040 B when the arenas held their class tables
// inline.
func TestRankFootprint(t *testing.T) {
	const ceiling = 2816
	got := unsafe.Sizeof(Proc{}) + unsafe.Sizeof(mailbox{}) + unsafe.Sizeof(eventRank{})
	t.Logf("Proc %d B + mailbox %d B + eventRank %d B = %d B (ceiling %d B)",
		unsafe.Sizeof(Proc{}), unsafe.Sizeof(mailbox{}), unsafe.Sizeof(eventRank{}), got, ceiling)
	if got > ceiling {
		t.Errorf("a rank's slab entries take %d B, ceiling %d B", got, ceiling)
	}
}
