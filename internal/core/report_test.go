package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/pybuf"
)

func TestReportJSONSchema(t *testing.T) {
	rep, err := Run(quickOpts(Latency, ModePy))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Benchmark string `json:"benchmark"`
		Cluster   string `json:"cluster"`
		Mode      string `json:"mode"`
		Buffer    string `json:"buffer"`
		Rows      []struct {
			Size  int     `json:"size"`
			AvgUs float64 `json:"avg_us"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Benchmark != "latency" || decoded.Mode != "omb-py" || decoded.Buffer != "numpy" {
		t.Errorf("decoded %+v", decoded)
	}
	if len(decoded.Rows) != len(rep.Series.Rows) {
		t.Errorf("rows %d vs %d", len(decoded.Rows), len(rep.Series.Rows))
	}
	if decoded.Rows[0].AvgUs <= 0 {
		t.Error("row latency missing")
	}
}

func TestReportJSONOmitsBufferInCMode(t *testing.T) {
	rep, err := Run(quickOpts(Latency, ModeC))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"buffer"`) {
		t.Errorf("C-mode report should omit buffer: %s", raw)
	}
}

func TestReportText(t *testing.T) {
	rep, err := Run(quickOpts(Latency, ModePy))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Text()
	for _, want := range []string{"latency", "omb-py", "Avg(us)", "8K"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report misses %q:\n%s", want, out)
		}
	}
	// Bandwidth reports render MB/s.
	bw, err := Run(quickOpts(Bandwidth, ModeC))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bw.Text(), "Bandwidth(MB/s)") {
		t.Error("bandwidth text report misses the MB/s column")
	}
}

func TestBiBandwidthExceedsBandwidth(t *testing.T) {
	uni, err := Run(quickOpts(Bandwidth, ModeC))
	if err != nil {
		t.Fatal(err)
	}
	bi, err := Run(quickOpts(BiBandwidth, ModeC))
	if err != nil {
		t.Fatal(err)
	}
	// At the largest size, bidirectional throughput must beat
	// unidirectional (both directions share virtual wires independently).
	last := uni.Series.Rows[len(uni.Series.Rows)-1]
	biLast, ok := bi.Series.Get(last.Size)
	if !ok {
		t.Fatal("size missing")
	}
	if biLast.MBps <= last.MBps {
		t.Errorf("bibw %v MB/s not above bw %v MB/s", biLast.MBps, last.MBps)
	}
}

func TestMultiLatencyNearPairLatency(t *testing.T) {
	pair, err := Run(quickOpts(Latency, ModeC))
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts(MultiLatency, ModeC)
	opts.Ranks, opts.PPN = 8, 4 // 4 concurrent pairs, senders and receivers split across nodes
	multi, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range multi.Series.Rows {
		p, ok := pair.Series.Get(r.Size)
		if !ok {
			continue
		}
		// Pairs run independent virtual wires; latency should stay within
		// a small factor of the 2-rank case.
		if r.AvgUs > 3*p.AvgUs+1 {
			t.Errorf("size %d: multi-pair latency %v way above pair latency %v", r.Size, r.AvgUs, p.AvgUs)
		}
	}
}

func TestGPUCollectiveRuns(t *testing.T) {
	opts := Options{
		Benchmark: Allgather, Mode: ModePy, Buffer: pybuf.CuPy,
		Cluster: "bridges2", UseGPU: true, Ranks: 16, PPN: 8,
		MinSize: 8, MaxSize: 4096, Iters: 5, Warmup: 1,
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series.Rows) == 0 {
		t.Fatal("empty series")
	}
}

func TestBarrierSingleRow(t *testing.T) {
	opts := quickOpts(Barrier, ModeC)
	opts.Ranks, opts.PPN = 8, 4
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series.Rows) != 1 || rep.Series.Rows[0].Size != 0 {
		t.Errorf("barrier rows %+v", rep.Series.Rows)
	}
	if rep.Series.Rows[0].AvgUs <= 0 {
		t.Error("barrier latency missing")
	}
}

func TestIterCounts(t *testing.T) {
	o := Options{Iters: 100, Warmup: 10, LargeThreshold: 8192, LargeIters: 20, LargeWarmup: 2}
	if it, wu := iterCounts(&o, 1024); it != 100 || wu != 10 {
		t.Errorf("small counts %d/%d", it, wu)
	}
	if it, wu := iterCounts(&o, 8192); it != 20 || wu != 2 {
		t.Errorf("large counts %d/%d", it, wu)
	}
}

func TestSeriesName(t *testing.T) {
	if got := seriesName(Options{Mode: ModeC}); got != "omb-c" {
		t.Errorf("seriesName C = %q", got)
	}
	if got := seriesName(Options{Mode: ModePy, Buffer: pybuf.CuPy}); got != "omb-py/cupy" {
		t.Errorf("seriesName py = %q", got)
	}
}
