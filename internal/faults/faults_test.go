package faults

import (
	"strings"
	"testing"
)

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "   ", " ; ; "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if spec == " ; ; " {
			// All-empty clauses still yield a plan object, but an inert one.
			if p.Active() {
				t.Fatalf("Parse(%q) produced an active plan: %+v", spec, p)
			}
			continue
		}
		if p != nil {
			t.Fatalf("Parse(%q) = %+v, want nil", spec, p)
		}
	}
	if (*Plan)(nil).Active() || (*Plan)(nil).HasKills() {
		t.Fatal("nil plan must be inert")
	}
}

func TestParseFull(t *testing.T) {
	p, err := Parse("kill:rank=3,after=2:allreduce; noise:sigma=5us; jitter:link=0.1; seed:42")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Kills) != 1 {
		t.Fatalf("kills = %+v", p.Kills)
	}
	k := p.Kills[0]
	if k.Rank != 3 || k.After != 2 || k.Coll != "allreduce" || k.At >= 0 {
		t.Fatalf("kill = %+v", k)
	}
	if p.NoiseSigma != 5 || p.Jitter != 0.1 || p.Seed != 42 {
		t.Fatalf("plan = %+v", p)
	}
	if !p.Active() || !p.HasKills() {
		t.Fatal("plan should be active with kills")
	}
}

func TestParseTimeKillAndUnits(t *testing.T) {
	p, err := Parse("kill:rank=0,at=1.5ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Kills[0].At; got != 1500 {
		t.Fatalf("at = %v us, want 1500", got)
	}
	p, err = Parse("noise:sigma=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.NoiseSigma != 2 {
		t.Fatalf("bare sigma = %v, want 2 us", p.NoiseSigma)
	}
	p, err = Parse("kill:rank=1,at=2s")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kills[0].At != 2e6 {
		t.Fatalf("at = %v us, want 2e6", p.Kills[0].At)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"kill:after=2",                 // missing rank
		"kill:rank=-1",                 // negative rank
		"kill:rank=0,at=5us:allreduce", // at + collective
		"kill:rank=0,when=now",         // unknown key
		"noise:sigma=0",                // non-positive sigma
		"noise:mean=5us",               // wrong key
		"jitter:link=-0.5",             // negative fraction
		"seed:banana",                  // non-integer seed
		"frobnicate:hard",              // unknown clause
		// Non-finite numbers run to NaN latencies, which no report can
		// encode, or render as a different plan.
		"noise:sigma=inf",
		"noise:sigma=NaN",
		"noise:sigma=1e303s", // finite in seconds, infinite in microseconds
		"jitter:link=inf",
		"jitter:link=NaN",
		"kill:rank=1,at=NaN",
		"kill:rank=1,at=+Inf",
		"kill:rank=1,after=3,at=5us", // after=N means nothing to an at=T kill
		// Past MaxMagnitude: noise and jitter that large overflow a clock.
		"noise:sigma=1e307",
		"jitter:link=1e308",
		"kill:rank=1,at=1001s",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	for _, spec := range []string{"noise:sigma=1000s", "jitter:link=1e9", "kill:rank=1,at=1e9us"} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q) at MaxMagnitude: %v", spec, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	const spec = "kill:rank=3,after=2:allreduce; noise:sigma=5us; jitter:link=0.1; seed:42"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if q.String() != p.String() {
		t.Fatalf("round trip: %q != %q", q.String(), p.String())
	}
	if !strings.Contains(p.String(), "seed:42") {
		t.Fatalf("non-default seed missing from %q", p.String())
	}
}

func TestUniformRangeAndDeterminism(t *testing.T) {
	seen := map[float64]bool{}
	for rank := uint64(0); rank < 8; rank++ {
		for ctr := uint64(0); ctr < 256; ctr++ {
			u := Uniform(7, rank, ctr)
			if u < 0 || u >= 1 {
				t.Fatalf("Uniform(7,%d,%d) = %v out of [0,1)", rank, ctr, u)
			}
			if u2 := Uniform(7, rank, ctr); u2 != u {
				t.Fatalf("Uniform not pure: %v vs %v", u, u2)
			}
			seen[u] = true
		}
	}
	if len(seen) < 2040 {
		t.Fatalf("only %d distinct draws out of 2048 — stream collisions", len(seen))
	}
	if Uniform(1, 0, 0) == Uniform(2, 0, 0) {
		t.Fatal("seed does not decorrelate draws")
	}
	if Uniform(1, 0, 5) == Uniform(1, 1, 5) {
		t.Fatal("rank does not decorrelate draws")
	}
}
