package core

import (
	"encoding/json"
	"reflect"
	"testing"
)

// foldSettings are the NoFold values a fault-injected run must agree
// across: same classified failure, same perturbed numbers, byte for byte,
// and both equal to the frozen answers (testdata/frozen).
var foldSettings = []bool{false, true}

// TestRunClassifiesKillFailure runs a fault scenario under a kill plan and
// checks Run returns a classified Report.Failure — not an error, not a
// hang — at the frozen failure site.
func TestRunClassifiesKillFailure(t *testing.T) {
	frozen := openFrozen(t, "kill_failure")
	for _, noFold := range foldSettings {
		opts := quickOpts(FaultAllreduce, ModeC)
		opts.Ranks, opts.PPN = 8, 4
		opts.MaxSize = 4 * 1024
		opts.TimingOnly = true
		opts.NoFold = noFold
		opts.Faults = "kill:rank=3,after=5:allreduce"
		rep, err := Run(opts)
		if err != nil {
			t.Fatalf("fold off=%v: Run = %v, want classified failure", noFold, err)
		}
		f := rep.Failure
		if f == nil {
			t.Fatalf("fold off=%v: Report.Failure is nil under a kill plan", noFold)
		}
		if f.Code != "MPI_ERR_PROC_FAILED" && f.Code != "RANK_KILLED" {
			t.Fatalf("fold off=%v: failure code %q", noFold, f.Code)
		}
		if len(f.Failed) != 1 || f.Failed[0] != 3 {
			t.Fatalf("fold off=%v: failure blames %v, want [3]", noFold, f.Failed)
		}
		var want Failure
		if frozen.Check(t, opts.Faults, f, &want) && !reflect.DeepEqual(*f, want) {
			t.Fatalf("fold off=%v: classified failure left the frozen answer:\n  got    %+v\n  frozen %+v",
				noFold, *f, want)
		}
	}
}

// TestFaultReportJSONFields pins the fault keys of the report schema: a
// fault-injected run serializes its plan and failure, and a clean run of
// the same options omits both keys entirely (the golden-fixture guarantee).
func TestFaultReportJSONFields(t *testing.T) {
	opts := quickOpts(Allreduce, ModeC)
	opts.Ranks, opts.PPN = 4, 2
	opts.MaxSize = 1024
	clean, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	var cleanKeys map[string]json.RawMessage
	if err := json.Unmarshal(cleanJSON, &cleanKeys); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"faults", "failure"} {
		if _, ok := cleanKeys[key]; ok {
			t.Fatalf("clean report serializes %q; no-fault schema must be unchanged", key)
		}
	}

	opts.Faults = "kill:rank=1,after=2:allreduce"
	failed, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	failedJSON, err := json.Marshal(failed)
	if err != nil {
		t.Fatal(err)
	}
	var failedKeys map[string]json.RawMessage
	if err := json.Unmarshal(failedJSON, &failedKeys); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"faults", "failure"} {
		if _, ok := failedKeys[key]; !ok {
			t.Fatalf("fault-injected report is missing %q key", key)
		}
	}
}

// TestFaultNoiseSweepDeterministic re-runs a noise+jitter sweep across
// serial and parallel workers and across fold settings: every combination
// must serialize byte-identically to the frozen answer — the seeded
// perturbation depends only on the plan, never on the schedule.
func TestFaultNoiseSweepDeterministic(t *testing.T) {
	frozen := openFrozen(t, "noise_sweep")
	marshal := func(noFold bool, workers int) []byte {
		base := quickOpts(Allreduce, ModeC)
		base.Ranks, base.PPN = 8, 4
		base.MaxSize = 8 * 1024
		base.NoFold = noFold
		base.TimingOnly = true
		base.Faults = "noise:sigma=3us; jitter:link=0.15; seed:42"
		sweep := Sweep{
			Base:    base,
			Workers: workers,
			Variants: []Variant{
				{Name: "allreduce", Mutate: func(o *Options) {}},
				{Name: "bcast", Mutate: func(o *Options) { o.Benchmark = Bcast }},
				{Name: "alltoall", Mutate: func(o *Options) { o.Benchmark = Alltoall; o.MaxSize = 1024 }},
			},
		}
		res, err := sweep.Run()
		if err != nil {
			t.Fatalf("fold off=%v workers %d: %v", noFold, workers, err)
		}
		blob, err := json.Marshal(res.Reports)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	for _, noFold := range foldSettings {
		for _, workers := range []int{1, 4} {
			got := json.RawMessage(marshal(noFold, workers))
			var want json.RawMessage
			if frozen.Check(t, "reports", got, &want) && string(got) != string(want) {
				t.Fatalf("noise sweep not deterministic: fold off=%v workers %d differs from the frozen answer",
					noFold, workers)
			}
		}
	}

	// The perturbation is live (differs from a clean run) and seeded
	// (differs under another seed).
	cleanOpts := quickOpts(Allreduce, ModeC)
	cleanOpts.Ranks, cleanOpts.PPN = 8, 4
	cleanOpts.MaxSize = 8 * 1024
	cleanOpts.TimingOnly = true
	clean, err := Run(cleanOpts)
	if err != nil {
		t.Fatal(err)
	}
	noisyOpts := cleanOpts
	noisyOpts.Faults = "noise:sigma=3us; jitter:link=0.15; seed:42"
	noisy, err := Run(noisyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(clean.Series.Rows, noisy.Series.Rows) {
		t.Fatal("noise plan did not perturb the numbers")
	}
	reseedOpts := cleanOpts
	reseedOpts.Faults = "noise:sigma=3us; jitter:link=0.15; seed:43"
	reseed, err := Run(reseedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(noisy.Series.Rows, reseed.Series.Rows) {
		t.Fatal("different seeds produced identical noisy numbers")
	}
}
