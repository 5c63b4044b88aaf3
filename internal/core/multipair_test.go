package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// Tests for the multi-pair family (mbw_mr, multi_bw) — the workload
// registered from its own file with no dispatch-site edits.

func multiPairOpts(b Benchmark) Options {
	return Options{
		Benchmark: b, Mode: ModeC, Ranks: 16, PPN: 4,
		MinSize: 8, MaxSize: 16 * 1024, Window: 16,
		Iters: 10, Warmup: 2, LargeIters: 4, LargeWarmup: 1,
	}
}

func TestMultiPairBandwidthRuns(t *testing.T) {
	rep, err := Run(multiPairOpts(MultiBWMR))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series.Rows) == 0 {
		t.Fatal("empty series")
	}
	for _, r := range rep.Series.Rows {
		if r.MBps <= 0 || math.IsNaN(r.MBps) {
			t.Errorf("size %d: aggregate bandwidth %v", r.Size, r.MBps)
		}
		if r.MsgRate <= 0 {
			t.Errorf("size %d: message rate %v, want > 0", r.Size, r.MsgRate)
		}
		// The message-rate column is exactly the bandwidth divided through
		// by the message size.
		want := r.MBps * 1e6 / float64(r.Size)
		if math.Abs(r.MsgRate-want) > 1e-6*want {
			t.Errorf("size %d: msg rate %v, want mbps*1e6/size = %v", r.Size, r.MsgRate, want)
		}
	}
}

// TestMultiPairAggregatesOverPairs pins the multi-pair point: with
// independent virtual wires, 8 concurrent pairs must move strictly more
// aggregate bandwidth than one pair.
func TestMultiPairAggregatesOverPairs(t *testing.T) {
	one := multiPairOpts(MultiBWMR)
	one.Pairs = 1
	many := multiPairOpts(MultiBWMR)
	many.Pairs = 8
	repOne, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	repMany, err := Run(many)
	if err != nil {
		t.Fatal(err)
	}
	last := repOne.Series.Rows[len(repOne.Series.Rows)-1]
	lastMany, ok := repMany.Series.Get(last.Size)
	if !ok {
		t.Fatal("size missing")
	}
	if lastMany.MBps <= last.MBps {
		t.Errorf("8 pairs %v MB/s not above 1 pair %v MB/s", lastMany.MBps, last.MBps)
	}
}

// TestMultiBWMatchesMBWMRBandwidth pins that multi_bw is the same workload
// as mbw_mr minus the message-rate column.
func TestMultiBWMatchesMBWMRBandwidth(t *testing.T) {
	mr, err := Run(multiPairOpts(MultiBWMR))
	if err != nil {
		t.Fatal(err)
	}
	bw, err := Run(multiPairOpts(MultiBandwidth))
	if err != nil {
		t.Fatal(err)
	}
	for i := range mr.Series.Rows {
		a, b := mr.Series.Rows[i], bw.Series.Rows[i]
		if a.Size != b.Size || a.MBps != b.MBps || a.AvgUs != b.AvgUs {
			t.Errorf("row %d diverged: mbw_mr %+v, multi_bw %+v", i, a, b)
		}
		if b.MsgRate != 0 {
			t.Errorf("multi_bw row %d carries a message rate %v", i, b.MsgRate)
		}
	}
}

// TestMultiPairEngineParity runs mbw_mr timing-only with folding on and
// off and requires the series frozen from the retired goroutine executor
// (testdata/frozen) — the registry family must be a first-class citizen of
// the event loop.
func TestMultiPairEngineParity(t *testing.T) {
	frozen := openFrozen(t, "multipair_parity")
	for _, shape := range [][2]int{{16, 1}, {63, 7}} {
		key := fmt.Sprintf("%dx%d", shape[0], shape[1])
		for _, noFold := range []bool{false, true} {
			opts := multiPairOpts(MultiBWMR)
			opts.Ranks, opts.PPN = shape[0], shape[1]
			opts.TimingOnly = true
			opts.NoFold = noFold
			rep, err := Run(opts)
			if err != nil {
				t.Fatalf("%s fold off=%v: %v", key, noFold, err)
			}
			var want []stats.Row
			if frozen.Check(t, key, rep.Series.Rows, &want) && !reflect.DeepEqual(rep.Series.Rows, want) {
				t.Errorf("%s fold off=%v: series left the frozen answer\ngot:    %+v\nfrozen: %+v",
					key, noFold, rep.Series.Rows, want)
			}
		}
	}
}

// TestMultiPairOddRanksIdleLast runs with an odd rank count: the unpaired
// last rank sits the streams out but still joins the aggregation, so the
// run must complete and report positive aggregate bandwidth.
func TestMultiPairOddRanksIdleLast(t *testing.T) {
	opts := multiPairOpts(MultiBWMR)
	opts.Ranks, opts.PPN = 5, 5
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Series.Rows {
		if r.MBps <= 0 {
			t.Errorf("size %d: bandwidth %v with idle rank", r.Size, r.MBps)
		}
		// The idle rank's elapsed time is ~0, which must surface as the
		// row minimum without corrupting the average.
		if r.MinUs > r.AvgUs+1e-9 {
			t.Errorf("size %d: min %v above avg %v", r.Size, r.MinUs, r.AvgUs)
		}
	}
}

func TestMultiPairPairsValidation(t *testing.T) {
	opts := multiPairOpts(MultiBWMR)
	opts.Pairs = 9 // needs 18 ranks, only 16
	if _, err := Run(opts); err == nil || !strings.Contains(err.Error(), "pairs") {
		t.Errorf("oversized -pairs accepted: %v", err)
	}
	opts.Pairs = -1
	if _, err := Run(opts); err == nil {
		t.Error("negative -pairs accepted")
	}
	// Pairs is ignored outside the multi-pair family.
	lat := quickOpts(Latency, ModeC)
	lat.Pairs = 1
	if _, err := Run(lat); err != nil {
		t.Errorf("latency with Pairs set should run: %v", err)
	}
}

// TestMultiPairParallelSweepMatchesSerial pins bit-identical rows between
// serial and parallel sweeps over pair counts.
func TestMultiPairParallelSweepMatchesSerial(t *testing.T) {
	base := multiPairOpts(MultiBWMR)
	base.TimingOnly = true
	variants := []Variant{}
	for _, pairs := range []int{1, 2, 4, 8} {
		pairs := pairs
		variants = append(variants, Variant{
			Name:   string(rune('0'+pairs)) + " pairs",
			Mutate: func(o *Options) { o.Pairs = pairs },
		})
	}
	serial, err := (Sweep{Base: base, Variants: variants, Workers: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (Sweep{Base: base, Variants: variants, Workers: 4}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Reports {
		if !reflect.DeepEqual(serial.Reports[i].Series, parallel.Reports[i].Series) {
			t.Fatalf("variant %d diverged between serial and parallel sweeps", i)
		}
	}
}

// TestMultiPairReportColumns pins the rendered message-rate column and the
// JSON msg_rate field.
func TestMultiPairReportColumns(t *testing.T) {
	rep, err := Run(multiPairOpts(MultiBWMR))
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Text()
	for _, want := range []string{"MB/s", "Messages/s"} {
		if !strings.Contains(text, want) {
			t.Errorf("mbw_mr text report misses %q:\n%s", want, text)
		}
	}
	raw, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"msg_rate"`) {
		t.Errorf("mbw_mr JSON misses msg_rate: %s", raw)
	}
	// Latency reports must keep omitting it.
	lat, err := Run(quickOpts(Latency, ModeC))
	if err != nil {
		t.Fatal(err)
	}
	raw, err = lat.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"msg_rate"`) {
		t.Errorf("latency JSON should omit msg_rate: %s", raw)
	}
}
