package main

import (
	"crypto/sha256"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestLayerRulesCoverRepository requires every non-test Go file under
// internal/ and cmd/ to belong to exactly one layer.
func TestLayerRulesCoverRepository(t *testing.T) {
	files := 0
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join("..", dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			file := filepath.ToSlash(strings.TrimPrefix(p, ".."+string(filepath.Separator)))
			files++
			var layers []string
			for _, r := range layerRules {
				for _, pat := range r.patterns {
					if ok, _ := filepath.Match(pat, file); ok {
						layers = append(layers, r.layer)
					}
				}
			}
			if len(layers) != 1 {
				t.Errorf("%s maps to layers %v; add it to exactly one rule in layers.go", file, layers)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("found no source files; run from the bench directory")
	}
	for _, r := range layerRules {
		if !slices.Contains(layerNames, r.layer) {
			t.Errorf("rule layer %q is not in layerNames", r.layer)
		}
	}
}

func TestStackLayer(t *testing.T) {
	for _, tc := range []struct {
		frames []frame
		want   string
	}{
		{[]frame{{"runtime.memmove", "/go/src/runtime/memmove_amd64.s"},
			{"repro/internal/mpi.(*mailbox).deliver", "/src/internal/mpi/mailbox.go"},
			{"repro/internal/core.Run", "/src/internal/core/run.go"}}, "mpi.p2p"},
		{[]frame{{"repro/internal/mpi.buildAllreduceRing[...]", "/src/internal/mpi/coll_allreduce.go"}}, "mpi.sched"},
		{[]frame{{"repro/internal/collective.BinomialTree", "/src/internal/collective/schedule.go"}}, "mpi.sched"},
		{[]frame{{"main.runPaper", "/src/bench/paper.go"}}, "bench"},
		{[]frame{{"repro/bench.runPaper", "/src/bench/paper.go"}}, "bench"},
		{[]frame{{"encoding/json.Marshal", "/go/src/encoding/json/encode.go"},
			{"net/http.(*conn).serve", "/go/src/net/http/server.go"}}, "serve"},
		{[]frame{{"net/http.(*persistConn).readLoop", "/go/src/net/http/transport.go"}}, "bench"},
		{[]frame{{"runtime.scanobject", "/go/src/runtime/mgcmark.go"},
			{"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"}}, "go.gc"},
		{[]frame{{"runtime.futex", "/go/src/runtime/os_linux.go"}}, "go.other"},
	} {
		if got := stackLayer(tc.frames); got != tc.want {
			t.Errorf("stackLayer(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// burn keeps a CPU busy in this package for d.
func burn(d time.Duration) [32]byte {
	var sum [32]byte
	for end := time.Now().Add(d); time.Now().Before(end); {
		sum = sha256.Sum256(sum[:])
	}
	return sum
}

// TestDecodeProfile reads a real runtime/pprof CPU profile and attributes
// its samples, which must reach this package. (Not "most of them": under
// -race, samples inside the race runtime unwind without Go callers.)
func TestDecodeProfile(t *testing.T) {
	var r rec
	if err := pprof.StartCPUProfile(&r.profile); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(r.profile.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range stacks {
		byLayer[stackLayer(s.frames)] += s.count
		total += s.count
	}
	if total == 0 {
		t.Fatal("profile decoded to no samples")
	}
	if byLayer["bench"] == 0 {
		t.Errorf("none of %d samples attributed to bench: %v", total, byLayer)
	}
}
