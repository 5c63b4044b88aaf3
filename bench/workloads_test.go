package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/experiments"
)

func inputJSON(t *testing.T, w *workload, seed uint64) []byte {
	t.Helper()
	b, err := json.Marshal(w.inputs(seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInputsFollowSeed pins that a seed names one set of inputs, and that
// different seeds name different ones, except for huge_world and
// autotune, whose inputs are seed-independent by design (see
// hugeWorldInputs and autotuneInputs).
func TestInputsFollowSeed(t *testing.T) {
	fixed := map[string]bool{"huge_world": true, "autotune": true}
	for _, w := range workloads {
		a, again, other := inputJSON(t, w, 7), inputJSON(t, w, 7), inputJSON(t, w, 8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 generated different inputs on a second call", w.name)
		}
		if varies := !bytes.Equal(a, other); varies == fixed[w.name] {
			t.Errorf("%s: inputs of seeds 7 and 8 differ = %v", w.name, varies)
		}
	}
}

// TestPaperExperimentsExist keeps the paper workload's list in step with
// the experiment registry, so a renamed experiment fails here rather than
// as failed operations in a benchmark run.
func TestPaperExperimentsExist(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range paperExperiments {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Error(err)
			continue
		}
		if e.Heavy || seen[id] {
			t.Errorf("%s is heavy or listed twice", id)
		}
		seen[id] = true
	}
}

// TestServeMixShape pins the 7:1 read/write mix: every cold configuration
// is written exactly once, in its own block of eight requests.
func TestServeMixShape(t *testing.T) {
	in := serveMixInputs(3)
	count := map[string]int{}
	for _, r := range in.Requests {
		count[r]++
	}
	var cold, hot int
	for body, n := range count {
		var b sweepBody
		if err := json.Unmarshal([]byte(body), &b); err != nil {
			t.Fatal(err)
		}
		if b.Benchmark == "latency" {
			hot++
			continue
		}
		cold++
		if n != 1 {
			t.Errorf("cold configuration %s sent %d times", body, n)
		}
	}
	if cold != 16 || hot > serveHot || len(in.Requests) != cold*serveBlock {
		t.Errorf("%d requests, %d cold and %d hot configurations; want %d, 16 and at most %d",
			len(in.Requests), cold, hot, 16*serveBlock, serveHot)
	}
}
