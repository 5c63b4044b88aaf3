package main

import "testing"

func TestDigestOutputs(t *testing.T) {
	base := map[string][]byte{"fig2": []byte("=== fig2 ===\n1 2.5\n"), "fig3": []byte("rows")}
	want := digestOutputs(base)
	if got := digestOutputs(map[string][]byte{"fig3": []byte("rows"), "fig2": []byte("=== fig2 ===\n1 2.5\n")}); got != want {
		t.Error("digest depends on the order outputs were added")
	}
	flipped := map[string][]byte{"fig2": []byte("=== fig2 ===\n1 2.6\n"), "fig3": []byte("rows")}
	if digestOutputs(flipped) == want {
		t.Error("changing one output byte kept the digest")
	}
	if digestOutputs(map[string][]byte{"ab": []byte("c")}) == digestOutputs(map[string][]byte{"a": []byte("bc")}) {
		t.Error("moving the key/value boundary kept the digest")
	}
}

func TestDigestCheck(t *testing.T) {
	good := digestOutputs(map[string][]byte{"table": []byte("{}")})
	bad := digestOutputs(map[string][]byte{"table": []byte("{ }")})
	known := map[string]map[string]string{"autotune": {"1": good}}

	recorded := newDigestCheck(known, "autotune", 1)
	if err := recorded.verify(good); err != nil {
		t.Errorf("recorded digest rejected: %v", err)
	}
	if recorded.verify(bad) == nil {
		t.Error("a one-byte output change passed the recorded digest")
	}

	fresh := newDigestCheck(known, "autotune", 2)
	if err := fresh.verify(bad); err != nil {
		t.Errorf("first repetition of an unrecorded seed rejected: %v", err)
	}
	if fresh.verify(good) == nil {
		t.Error("a repetition differing from the first passed")
	}
}

// TestKnownDigestsCoverSeedOne requires a recorded digest for the default
// seed of every workload.
func TestKnownDigestsCoverSeedOne(t *testing.T) {
	known, err := knownDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(known[w.name]["1"]) != 64 {
			t.Errorf("no recorded seed-1 digest for %s", w.name)
		}
	}
}
