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
