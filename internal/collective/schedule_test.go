package collective

import (
	"iter"
	"slices"
	"testing"
	"testing/quick"
)

func TestPof2Floor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 7: 4, 8: 8, 9: 8, 896: 512, 1024: 1024}
	for in, want := range cases {
		if got := Pof2Floor(in); got != want {
			t.Errorf("Pof2Floor(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPof2(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 1024} {
		if !IsPof2(p) {
			t.Errorf("IsPof2(%d) = false, want true", p)
		}
	}
	for _, p := range []int{0, 3, 5, 6, 7, 896} {
		if IsPof2(p) {
			t.Errorf("IsPof2(%d) = true, want false", p)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 896: 10, 1024: 10}
	for in, want := range cases {
		if got := Log2Ceil(in); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestBinomialTreeStructure checks that parent/children are mutually
// consistent and every non-root rank has exactly one parent path to root.
func TestBinomialTreeStructure(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64} {
		for root := 0; root < size; root += max(1, size/3) {
			// Every rank reaches the root by following parents.
			for r := 0; r < size; r++ {
				cur, hops := r, 0
				for cur != root {
					cur = BinomialParent(cur, root, size)
					if cur < 0 {
						t.Fatalf("size=%d root=%d rank=%d: lost parent chain", size, root, r)
					}
					if hops++; hops > size {
						t.Fatalf("size=%d root=%d rank=%d: parent cycle", size, root, r)
					}
				}
			}
			// Children lists partition the non-root ranks, and the reduce
			// order is the broadcast order reversed.
			seen := map[int]int{}
			for r := 0; r < size; r++ {
				children := slices.Collect(BinomialChildren(r, root, size))
				rev := slices.Collect(BinomialChildrenReversed(r, root, size))
				slices.Reverse(rev)
				if !slices.Equal(children, rev) {
					t.Errorf("size=%d root=%d rank=%d: reversed children %v, want %v reversed",
						size, root, r, rev, children)
				}
				for _, ch := range children {
					seen[ch]++
					if got := BinomialParent(ch, root, size); got != r {
						t.Errorf("size=%d root=%d: child %d of %d has parent %d", size, root, ch, r, got)
					}
				}
			}
			if len(seen) != size-1 {
				t.Errorf("size=%d root=%d: children cover %d ranks, want %d", size, root, len(seen), size-1)
			}
			for ch, n := range seen {
				if n != 1 {
					t.Errorf("size=%d root=%d: rank %d appears as child %d times", size, root, ch, n)
				}
			}
		}
	}
}

func TestDisseminationPeers(t *testing.T) {
	var sendTo, recvFrom []int
	for s, r := range DisseminationPeers(2, 8) {
		sendTo, recvFrom = append(sendTo, s), append(recvFrom, r)
	}
	wantSend := []int{3, 4, 6}
	wantRecv := []int{1, 0, 6}
	if !slices.Equal(sendTo, wantSend) || !slices.Equal(recvFrom, wantRecv) {
		t.Errorf("got send %v recv %v, want %v %v", sendTo, recvFrom, wantSend, wantRecv)
	}
	// Rounds must number ceil(log2(p)), and round k's receive is the
	// sender whose send targets this rank in round k.
	for _, p := range []int{2, 3, 7, 8, 896} {
		rounds := 0
		for range DisseminationPeers(0, p) {
			rounds++
		}
		if rounds != Log2Ceil(p) {
			t.Errorf("p=%d: %d rounds, want %d", p, rounds, Log2Ceil(p))
		}
		for r := 0; r < p; r++ {
			k := 0
			for _, from := range DisseminationPeers(r, p) {
				var back []int
				for to := range DisseminationPeers(from, p) {
					back = append(back, to)
				}
				if back[k] != r {
					t.Fatalf("p=%d rank %d round %d: sender %d sends to %d", p, r, k, from, back[k])
				}
				k++
			}
		}
	}
}

func TestRecursiveDoublingPeersSymmetric(t *testing.T) {
	const size = 16
	for r := 0; r < size; r++ {
		for k, peer := range slices.Collect(RecursiveDoublingPeers(r, size)) {
			back := slices.Collect(RecursiveDoublingPeers(peer, size))
			if back[k] != r {
				t.Errorf("rank %d round %d: peer %d does not point back (%d)", r, k, peer, back[k])
			}
		}
	}
}

func TestRecursiveDoublingPeersPanicsOnNonPof2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two size")
		}
	}()
	RecursiveDoublingPeers(0, 6)
}

func TestPof2Fold(t *testing.T) {
	// size 6: pof2 4, r = 2, ranks 0..3 pair (0->1, 2->3), ranks 4,5 inside.
	wantRoles := []FoldRole{FoldSender, FoldReceiver, FoldSender, FoldReceiver, FoldInside, FoldInside}
	wantNew := []int{-1, 0, -1, 1, 2, 3}
	for r := 0; r < 6; r++ {
		f := NewPof2Fold(r, 6)
		if f.Pof2 != 4 {
			t.Errorf("rank %d: pof2 %d, want 4", r, f.Pof2)
		}
		if f.Role != wantRoles[r] {
			t.Errorf("rank %d: role %v, want %v", r, f.Role, wantRoles[r])
		}
		if f.NewRank != wantNew[r] {
			t.Errorf("rank %d: new rank %d, want %d", r, f.NewRank, wantNew[r])
		}
	}
	// OldRank must invert NewRank for all participants.
	for r := 0; r < 6; r++ {
		f := NewPof2Fold(r, 6)
		if f.Role == FoldSender {
			continue
		}
		if got := f.OldRank(f.NewRank, 6); got != r {
			t.Errorf("rank %d: OldRank(NewRank)=%d", r, got)
		}
	}
}

func TestPof2FoldProperty(t *testing.T) {
	prop := func(sizeRaw uint8) bool {
		size := int(sizeRaw%200) + 1
		newRanks := map[int]bool{}
		for r := 0; r < size; r++ {
			f := NewPof2Fold(r, size)
			if f.Role == FoldSender {
				if f.Partner < 0 || f.Partner >= size {
					return false
				}
				continue
			}
			if f.NewRank < 0 || f.NewRank >= f.Pof2 || newRanks[f.NewRank] {
				return false
			}
			newRanks[f.NewRank] = true
			if f.OldRank(f.NewRank, size) != r {
				return false
			}
		}
		return len(newRanks) == Pof2Floor(size)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBruckScheduleCoversAllBlocks(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13, 896} {
		steps := slices.Collect(BruckSchedule(0, p))
		if len(steps) != Log2Ceil(p) {
			t.Errorf("p=%d: %d rounds, want %d", p, len(steps), Log2Ceil(p))
		}
		got := 1 // own block
		for _, s := range steps {
			got += s.BlockCount
		}
		if got != p {
			t.Errorf("p=%d: schedule moves %d blocks, want %d", p, got, p)
		}
	}
}

func TestPairwisePeerIsPermutationEachRound(t *testing.T) {
	for _, p := range []int{2, 4, 5, 7, 8} {
		for k := 1; k < p; k++ {
			seen := map[int]bool{}
			for r := 0; r < p; r++ {
				peer := PairwisePeer(r, p, k)
				if peer < 0 || peer >= p {
					t.Fatalf("p=%d k=%d r=%d: peer %d out of range", p, k, r, peer)
				}
				// Pairing must be symmetric: peer's peer is me.
				if PairwisePeer(peer, p, k) != r {
					t.Fatalf("p=%d k=%d: asymmetric pair (%d,%d)", p, k, r, peer)
				}
				seen[peer] = true
			}
			if len(seen) != p {
				t.Errorf("p=%d k=%d: round is not a permutation", p, k)
			}
		}
	}
}

// halvingByBisection is recursive halving stated by bisecting the window
// round by round, the reference for the closed-form windows.
func halvingByBisection(newRank, pof2 int) []RecursiveHalvingStep {
	var steps []RecursiveHalvingStep
	lo, hi := 0, pof2
	for mask := pof2 / 2; mask > 0; mask /= 2 {
		peer := newRank ^ mask
		mid := (lo + hi) / 2
		var s RecursiveHalvingStep
		if newRank&mask == 0 { // keep the lower half
			s = RecursiveHalvingStep{Peer: peer, KeepLo: lo, KeepHi: mid, SendLo: mid, SendHi: hi}
			hi = mid
		} else {
			s = RecursiveHalvingStep{Peer: peer, KeepLo: mid, KeepHi: hi, SendLo: lo, SendHi: mid}
			lo = mid
		}
		steps = append(steps, s)
	}
	return steps
}

// TestRecursiveHalvingWindows verifies the halving windows shrink correctly,
// match the bisection they are closed forms of, and that the final window
// is exactly the rank's own block.
func TestRecursiveHalvingWindows(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 64, 1024} {
		for r := 0; r < p; r++ {
			steps := slices.Collect(RecursiveHalvingSchedule(r, p))
			if want := halvingByBisection(r, p); !slices.Equal(steps, want) {
				t.Fatalf("p=%d r=%d: windows %+v, want %+v", p, r, steps, want)
			}
			if len(steps) != Log2Ceil(p) {
				t.Fatalf("p=%d r=%d: %d steps, want %d", p, r, len(steps), Log2Ceil(p))
			}
			last := steps[len(steps)-1]
			if last.KeepLo != r || last.KeepHi != r+1 {
				t.Errorf("p=%d r=%d: final window [%d,%d), want [%d,%d)",
					p, r, last.KeepLo, last.KeepHi, r, r+1)
			}
			// Keep and send windows must be disjoint halves of the previous
			// window, and each is half its size.
			lo, hi := 0, p
			for i, s := range steps {
				if s.KeepHi-s.KeepLo != (hi-lo)/2 || s.SendHi-s.SendLo != (hi-lo)/2 {
					t.Errorf("p=%d r=%d step %d: window sizes wrong: %+v", p, r, i, s)
				}
				lo, hi = s.KeepLo, s.KeepHi
			}
		}
	}
}

// TestAllgatherScheduleMirrorsHalving verifies the allgather phase is the
// halving run backwards and regrows windows back to the full range.
func TestAllgatherScheduleMirrorsHalving(t *testing.T) {
	for _, p := range []int{2, 4, 8, 32} {
		for r := 0; r < p; r++ {
			halving := slices.Collect(RecursiveHalvingSchedule(r, p))
			slices.Reverse(halving)
			i := 0
			have := map[int]bool{r: true}
			for s := range RecursiveDoublingAllgatherSchedule(r, p) {
				h := halving[i]
				if s.Peer != h.Peer || s.HaveLo != h.KeepLo || s.HaveHi != h.KeepHi ||
					s.GetLo != h.SendLo || s.GetHi != h.SendHi {
					t.Fatalf("p=%d r=%d round %d: %+v does not mirror %+v", p, r, i, s, h)
				}
				i++
				// Must currently own exactly [HaveLo, HaveHi).
				for b := s.HaveLo; b < s.HaveHi; b++ {
					if !have[b] {
						t.Fatalf("p=%d r=%d: step claims to own block %d it does not", p, r, b)
					}
				}
				for b := s.GetLo; b < s.GetHi; b++ {
					have[b] = true
				}
			}
			if len(have) != p {
				t.Errorf("p=%d r=%d: ends owning %d blocks, want %d", p, r, len(have), p)
			}
		}
	}
}

func TestRingNeighbors(t *testing.T) {
	s, r := RingNeighbors(0, 5)
	if s != 1 || r != 4 {
		t.Errorf("RingNeighbors(0,5) = (%d,%d), want (1,4)", s, r)
	}
	s, r = RingNeighbors(4, 5)
	if s != 0 || r != 3 {
		t.Errorf("RingNeighbors(4,5) = (%d,%d), want (0,3)", s, r)
	}
}

// TestPairwisePeerIsValidPairing checks, for power-of-two, odd, and — the
// regression case — even non-power-of-two sizes, that every round's
// pairing is a self-inverse permutation inside the group and that across
// a full schedule every rank meets every other rank exactly once.
func TestPairwisePeerIsValidPairing(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 3, 5, 7, 9, 6, 10, 12, 24, 224} {
		start, rounds := 1, p-1
		if !IsPof2(p) {
			start, rounds = 0, p
		}
		met := make([]map[int]bool, p)
		for r := range met {
			met[r] = map[int]bool{}
		}
		for i := 0; i < rounds; i++ {
			k := start + i
			for r := 0; r < p; r++ {
				peer := PairwisePeer(r, p, k)
				if peer < 0 || peer >= p {
					t.Fatalf("p=%d k=%d: rank %d pairs outside the group (%d)", p, k, r, peer)
				}
				if back := PairwisePeer(peer, p, k); back != r {
					t.Fatalf("p=%d k=%d: pairing not self-inverse (%d -> %d -> %d)", p, k, r, peer, back)
				}
				if peer == r {
					continue // the idle round of the shifted-sum schedule
				}
				if met[r][peer] {
					t.Fatalf("p=%d: rank %d meets %d twice", p, r, peer)
				}
				met[r][peer] = true
			}
		}
		for r := 0; r < p; r++ {
			if len(met[r]) != p-1 {
				t.Errorf("p=%d: rank %d met %d peers, want %d", p, r, len(met[r]), p-1)
			}
		}
	}
}

// firstRound ranges over seq and breaks after its first round, returning
// the rounds seen: an iterator that kept yielding would panic.
func firstRound[T any](seq iter.Seq[T]) int {
	n := 0
	for range seq {
		n++
		break
	}
	return n
}

// TestSchedulesStopEarly breaks out of every multi-round schedule after its
// first round.
func TestSchedulesStopEarly(t *testing.T) {
	const rank, size = 5, 64
	diss := 0
	for range DisseminationPeers(rank, size) {
		diss++
		break
	}
	for name, n := range map[string]int{
		"BinomialChildren":                   firstRound(BinomialChildren(0, 0, size)),
		"BinomialChildrenReversed":           firstRound(BinomialChildrenReversed(0, 0, size)),
		"DisseminationPeers":                 diss,
		"RecursiveDoublingPeers":             firstRound(RecursiveDoublingPeers(rank, size)),
		"BruckSchedule":                      firstRound(BruckSchedule(rank, size)),
		"RecursiveHalvingSchedule":           firstRound(RecursiveHalvingSchedule(rank, size)),
		"RecursiveDoublingAllgatherSchedule": firstRound(RecursiveDoublingAllgatherSchedule(rank, size)),
	} {
		if n != 1 {
			t.Errorf("%s: %d rounds before the break, want 1", name, n)
		}
	}
}
