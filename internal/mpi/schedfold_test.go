package mpi

import (
	"sync"
	"testing"
)

// The fold structure cache's budget protocol (reserve, publish, single
// refund) is easy to regress into leaked reservations or double refunds;
// these tests pin the accounting byte for byte around every exit path of
// publishFoldStruct. Keys use private Algorithm values, so they can never
// collide with real registry entries.

func foldStructTestKey(p int) foldStructKey {
	return foldStructKey{alg: &Algorithm{Name: "structtest"}, p: p, n: 64}
}

// loadFoldStruct returns the cached structure for key, nil when absent.
func loadFoldStruct(key foldStructKey) *foldShape {
	v, ok := foldStructCache.Load(key)
	if !ok {
		return nil
	}
	return v.(*foldShape)
}

func TestPublishFoldStructAccounting(t *testing.T) {
	newShape := func() *foldShape { return &foldShape{ok: true, class: make([]int32, 7)} }
	cost := foldStructFootprint(newShape())

	t.Run("success charges the budget once", func(t *testing.T) {
		key := foldStructTestKey(1)
		tmpl := newShape()
		before := foldStructBytes.Load()
		if !publishFoldStruct(key, tmpl) {
			t.Fatal("first publish rejected")
		}
		if got := foldStructBytes.Load() - before; got != cost {
			t.Fatalf("budget delta %d, want %d", got, cost)
		}
		if loadFoldStruct(key) != tmpl {
			t.Fatal("entry not readable back")
		}
	})

	t.Run("duplicate neither stores nor charges", func(t *testing.T) {
		key := foldStructTestKey(2)
		first := newShape()
		if !publishFoldStruct(key, first) {
			t.Fatal("first publish rejected")
		}
		before := foldStructBytes.Load()
		if publishFoldStruct(key, newShape()) {
			t.Fatal("duplicate publish accepted")
		}
		if got := foldStructBytes.Load(); got != before {
			t.Fatalf("duplicate changed the budget: %d -> %d", before, got)
		}
		if loadFoldStruct(key) != first {
			t.Fatal("duplicate replaced the entry")
		}
	})

	t.Run("over budget refunds the reservation", func(t *testing.T) {
		key := foldStructTestKey(3)
		// Saturate the budget without touching the map, then restore it.
		filler := foldStructMaxBytes - foldStructBytes.Load()
		foldStructBytes.Add(filler)
		defer foldStructBytes.Add(-filler)
		before, overflows := foldStructBytes.Load(), cacheOverflows.Load()
		if publishFoldStruct(key, newShape()) {
			t.Fatal("publish accepted over budget")
		}
		if got := foldStructBytes.Load(); got != before {
			t.Fatalf("failed publish leaked budget: %d -> %d", before, got)
		}
		if got := cacheOverflows.Load() - overflows; got != 1 {
			t.Fatalf("over-budget publish counted %d overflows, want 1", got)
		}
		if loadFoldStruct(key) != nil {
			t.Fatal("over-budget entry still published")
		}
	})

	t.Run("concurrent same-key stores charge exactly once", func(t *testing.T) {
		key := foldStructTestKey(4)
		const workers = 16
		before := foldStructBytes.Load()
		var wg sync.WaitGroup
		wins := make(chan bool, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wins <- publishFoldStruct(key, newShape())
			}()
		}
		wg.Wait()
		close(wins)
		won := 0
		for w := range wins {
			if w {
				won++
			}
		}
		if won != 1 {
			t.Fatalf("%d publishes claimed the entry, want exactly 1", won)
		}
		if got := foldStructBytes.Load() - before; got != cost {
			t.Fatalf("concurrent publishes left budget delta %d, want %d", got, cost)
		}
	})
}

// TestBuildFoldTableRefusals pins the per-rank table's build-time checks on
// hand-made step lists for a 2-rank world: a table is kept only when every
// message meets its receive, fits it, and can run in some order, so a shape
// the per-rank path would reject (ErrTruncate, a deadlock, a builder bug)
// falls back instead of folding.
func TestBuildFoldTableRefusals(t *testing.T) {
	w := parityWorld(t, 2, 1, Config{})
	send := func(peer, n int) collStep { return collStep{op: opSend, peer: peer, n: n} }
	recv := func(peer, n int) collStep { return collStep{op: opRecv, peer: peer, n: n} }
	exch := func(peer, n int) collStep {
		return collStep{op: opExchange, sendPeer: peer, sendN: n, peer: peer, n: n}
	}
	cases := []struct {
		name   string
		steps  [2][]collStep
		budget int
		ok     bool
	}{
		{"send then receive", [2][]collStep{{send(1, 64)}, {recv(0, 64)}}, 0, true},
		{"exchange", [2][]collStep{{exch(1, 64)}, {exch(0, 64)}}, 0, true},
		{"shorter message", [2][]collStep{{send(1, 32)}, {recv(0, 64)}}, 0, true},
		{"post, receive, drain", [2][]collStep{
			{{op: opPost, peer: 1, n: 8}, recv(1, 8), {op: opWaitSend}},
			{{op: opPost, peer: 0, n: 8}, recv(0, 8), {op: opWaitSend}}}, 0, true},
		{"truncating message", [2][]collStep{{send(1, 128)}, {recv(0, 64)}}, 0, false},
		{"message never received", [2][]collStep{{send(1, 64), send(1, 64)}, {recv(0, 64)}}, 0, false},
		{"receive never sent", [2][]collStep{{send(1, 64)}, {recv(0, 64), recv(0, 64)}}, 0, false},
		{"both send first", [2][]collStep{{send(1, 64), recv(1, 64)}, {send(0, 64), recv(0, 64)}}, 0, false},
		{"post twice", [2][]collStep{
			{{op: opPost, peer: 1, n: 8}, {op: opPost, peer: 1, n: 8}, {op: opWaitSend}},
			{recv(0, 8), recv(0, 8)}}, 0, false},
		{"post never drained", [2][]collStep{{{op: opPost, peer: 1, n: 8}}, {recv(0, 8)}}, 0, false},
		{"peer out of range", [2][]collStep{{send(2, 64)}, {recv(0, 64)}}, 0, false},
		{"over the step budget", [2][]collStep{{exch(1, 64)}, {exch(0, 64)}}, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.budget > 0 {
				defer func(old int) { foldMaxTableSteps = old }(foldMaxTableSteps)
				foldMaxTableSteps = tc.budget
			}
			tab := buildFoldTable(w, func(r int) ([]collStep, bool) { return tc.steps[r], true })
			if (tab != nil) != tc.ok {
				t.Fatalf("table kept = %v, want %v", tab != nil, tc.ok)
			}
		})
	}
	t.Run("builder refused", func(t *testing.T) {
		if buildFoldTable(w, func(int) ([]collStep, bool) { return nil, false }) != nil {
			t.Fatal("table kept for a builder that drew staging storage")
		}
	})
}
