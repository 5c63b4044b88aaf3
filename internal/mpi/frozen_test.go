package mpi

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"repro/fixture"
)

// Frozen answers: the parity tests compare the runtime against answers
// recorded in testdata/frozen from the per-rank goroutine executor this
// package ran before the event loop became its only engine. The files are
// the reference, not a snapshot of the current build: rewrite them with
// -update only when a reported number is meant to change.

var update = flag.Bool("update", false,
	"record the testdata/frozen answers from this build instead of checking them")

// openFrozen loads testdata/frozen/<name>.json.
func openFrozen(t *testing.T, name string) *fixture.Answers {
	t.Helper()
	return fixture.Open(t, filepath.Join("testdata", "frozen", name+".json"), *update)
}

// logDigest fingerprints one rank's message log: every field of every
// event, in program order, through 64-bit FNV-1a.
func logDigest(events []Event) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, e := range events {
		put(uint64(e.Kind))
		put(uint64(e.Rank))
		put(uint64(e.Peer))
		put(uint64(e.Tag))
		put(uint64(e.Bytes))
		put(uint64(e.Link))
		put(math.Float64bits(float64(e.Time)))
		eager := uint64(0)
		if e.Eager {
			eager = 1
		}
		put(eager)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
