package mpi

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refinePartitionDenseMax is the reference's dense-table bound: up to this
// many classes it labels pairs through a (class x class) table, beyond it
// through a map.
const refinePartitionDenseMax = 1024

// refinePartitionReference is refinePartition as it was written before the
// one-pass form: every delta allocates a dense ncls*ncls table or a fresh
// map. It defines the labels the one-pass form must reproduce.
func refinePartitionReference(sh *foldShape, cls []int32, ncls int) int {
	p := len(cls)
	next := make([]int32, p)
	var dense []int32
	var stable [8]int32
	nstable := 0
	refineBy := func(delta int32) {
		if slices.Contains(stable[:nstable], delta) {
			return
		}
		n := 0
		if ncls <= refinePartitionDenseMax {
			need := ncls * ncls
			if cap(dense) < need {
				dense = make([]int32, need)
			}
			tab := dense[:need]
			for i := range tab {
				tab[i] = -1
			}
			for r := 0; r < p; r++ {
				peer := foldApply(sh.kind, r, int(delta), p)
				key := int(cls[r])*ncls + int(cls[peer])
				id := tab[key]
				if id < 0 {
					id = int32(n)
					n++
					tab[key] = id
				}
				next[r] = id
			}
		} else {
			m := make(map[int64]int32, ncls+16)
			for r := 0; r < p; r++ {
				peer := foldApply(sh.kind, r, int(delta), p)
				key := int64(cls[r])<<32 | int64(cls[peer])
				id, ok := m[key]
				if !ok {
					id = int32(n)
					n++
					m[key] = id
				}
				next[r] = id
			}
		}
		if n != ncls {
			ncls = n
			copy(cls, next)
			nstable = 0
		} else if nstable < len(stable) {
			stable[nstable] = delta
			nstable++
		}
	}
	for {
		if ncls <= 1 || ncls >= p {
			return ncls
		}
		before := ncls
		for k := range sh.steps {
			fs := &sh.steps[k]
			if fs.op != opExchange {
				continue
			}
			refineBy(fs.sendDelta)
			refineBy(fs.recvDelta)
		}
		if ncls == before {
			return ncls
		}
	}
}

// firstSeenLabels relabels cls in first-seen rank order, as the analysis
// and the entry tokens label classes, and returns the class count.
func firstSeenLabels(cls []int32) int {
	ids := map[int32]int32{}
	for r, c := range cls {
		id, ok := ids[c]
		if !ok {
			id = int32(len(ids))
			ids[c] = id
		}
		cls[r] = id
	}
	return len(ids)
}

// refineDelta draws a peer delta of the kind that maps every rank of a
// p-rank world into the world: any residue for the modular kind, and for
// xor a value below p's lowest set bit (any value below p when p is a
// power of two).
func refineDelta(rng *rand.Rand, kind foldKind, p int) int32 {
	if kind == foldKindXor {
		return int32(rng.IntN(p & -p))
	}
	return int32(rng.IntN(p))
}

// TestRefinePartitionMatchesReference compares the one-pass refinement
// with the reference on random and structured class vectors: both delta
// kinds, power-of-two and other world sizes up to 4096, and class counts
// on both sides of the reference's dense bound. Labels and class counts
// must be equal. One scratch serves every case, as one World's does.
// -short stops at 2048 ranks, which still has class counts past 1024.
func TestRefinePartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 31))
	var rs foldRefine
	cases := 0
	for _, p := range []int{2, 3, 12, 64, 100, 1024, 1536, 2048, 3000, 4096} {
		if testing.Short() && p > 2048 {
			break
		}
		for _, kind := range []foldKind{foldKindXor, foldKindMod} {
			for _, want := range []int{1, 2, 7, 300, 1023, 1025, 2000, 4000} {
				if want > p {
					continue
				}
				for _, structured := range []bool{false, true} {
					cls := make([]int32, p)
					for r := range cls {
						if structured {
							// Blocks of consecutive ranks: symmetric
							// enough that refinement stops short of
							// splitting every rank apart.
							cls[r] = int32(r * want / p)
						} else {
							cls[r] = int32(rng.IntN(want))
						}
					}
					ncls := firstSeenLabels(cls)
					sh := &foldShape{kind: kind}
					for range 1 + rng.IntN(4) {
						d := refineDelta(rng, kind, p)
						back := d
						if kind == foldKindMod && d != 0 {
							back = int32(p) - d
						}
						sh.steps = append(sh.steps,
							foldStep{op: opReduce},
							foldStep{op: opExchange, sendDelta: d, recvDelta: back})
					}
					name := fmt.Sprintf("p=%d kind=%d classes=%d structured=%v deltas=%v",
						p, kind, ncls, structured, sh.steps)
					ref := slices.Clone(cls)
					nref := refinePartitionReference(sh, ref, ncls)
					got := slices.Clone(cls)
					ngot := sh.refinePartition(&rs, got, ncls)
					if ngot != nref {
						t.Fatalf("%s: %d classes, reference %d", name, ngot, nref)
					}
					if !slices.Equal(got, ref) {
						t.Fatalf("%s: labels differ from the reference", name)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestRefinePartitionWarmAllocs pins the reused scratch: once warm, a
// refinement that splits classes through the map allocates nothing.
func TestRefinePartitionWarmAllocs(t *testing.T) {
	const p = 4096
	sh := &foldShape{kind: foldKindXor, steps: []foldStep{
		{op: opExchange, sendDelta: 1, recvDelta: 1},
		{op: opExchange, sendDelta: 1024, recvDelta: 1024},
	}}
	base := make([]int32, p)
	for r := range base {
		base[r] = int32(r % 3)
	}
	cls := make([]int32, p)
	var rs foldRefine
	refine := func() {
		copy(cls, base)
		sh.refinePartition(&rs, cls, 3)
	}
	refine()
	if n := testing.AllocsPerRun(10, refine); n != 0 {
		t.Errorf("warm refinement allocates %.1f times, want 0", n)
	}
}
