package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi4py"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
)

// TestStatsEndpoint pins GET /stats as a plain counter dump that tracks
// real traffic: a miss then a hit on the same body.
func TestStatsEndpoint(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	h := s.Handler()

	rec := get(t, h, "/stats")
	if rec.Code != 200 {
		t.Fatalf("GET /stats = %d", rec.Code)
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Errorf("fresh service stats = %+v", st)
	}

	if rec := post(t, h, fastSweep(3)); rec.Code != 200 {
		t.Fatalf("first sweep = %d: %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, fastSweep(3)); rec.Code != 200 {
		t.Fatalf("second sweep = %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(get(t, h, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 1 || st.CacheHits != 1 || st.CacheEntries != 1 {
		t.Errorf("after miss+hit, stats = %+v", st)
	}
	if st.Shed != 0 || st.Draining {
		t.Errorf("unexpected shed/draining in %+v", st)
	}
}

// TestClientEncodeRoundTrip pins EncodeOptions as the exact inverse of
// decodeOptions: decode(encode(opts)) == opts, field for field.
func TestClientEncodeRoundTrip(t *testing.T) {
	cases := map[string]core.Options{
		"minimal": {Benchmark: "latency"},
		"full": {
			Benchmark:  "allreduce",
			Cluster:    "frontera",
			Impl:       netmodel.MVAPICH2,
			Mode:       core.ModePy,
			Buffer:     pybuf.NumPy,
			Ranks:      16,
			PPN:        2,
			MinSize:    1024,
			MaxSize:    65536,
			Iters:      10,
			Warmup:     2,
			Window:     32,
			TimingOnly: true,
			Sizes:      []int{1024, 4096},
			DType:      mpi.Float64,
			Tuning:     mpi.Tuning{AllreduceRabenseifnerMin: 4096, AllgatherRDMaxTotal: -1},
			Algorithms: map[string]string{"allreduce": "rabenseifner"},
			Faults:     "noise:sigma=2us; seed:7",
		},
		"probe": {
			Benchmark:  "alltoall",
			Ranks:      224,
			PPN:        56,
			TimingOnly: true,
			Iters:      10,
			Warmup:     2,
			Sizes:      []int{1024, 2048},
			Tuning:     mpi.Tuning{AlltoallBruckMaxBlock: 2048},
		},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			body, err := EncodeOptions(opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeOptions(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("decoding %s: %v", body, err)
			}
			if !reflect.DeepEqual(got, opts) {
				t.Errorf("round trip changed options\nsent: %+v\ngot:  %+v\nwire: %s", opts, got, body)
			}
		})
	}

	if _, err := EncodeOptions(core.Options{Benchmark: "latency", Profiler: &mpi4py.Profiler{}}); err == nil {
		t.Error("options with a Profiler hook should refuse to encode")
	}
	if _, err := EncodeOptions(core.Options{}); err == nil {
		t.Error("options without a benchmark should refuse to encode")
	}
}

// FuzzDecodeOptions checks the request decoder against its inverse on
// arbitrary bodies: it never panics, and a body it accepts re-encodes
// through EncodeOptions and decodes to options with the same content
// address, so the service caches the sweep the client asked for.
func FuzzDecodeOptions(f *testing.F) {
	for _, body := range []string{
		fastSweep(3),
		slowSweep(2),
		`{"benchmark":"allreduce","mode":"py","buffer":"numpy","dtype":"float64","sizes":[1024,4096],` +
			`"tuning":{"allreduce_rabenseifner_min":4096},"algorithms":{"allreduce":"raben"},"faults":"noise:sigma=2us; seed:7"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		opts, err := decodeOptions(bytes.NewReader(body))
		if err != nil {
			return
		}
		wire, err := EncodeOptions(opts)
		if err != nil {
			t.Fatalf("decoded options do not encode: %v", err)
		}
		again, err := decodeOptions(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("re-encoded body %s does not decode: %v", wire, err)
		}
		if opts.CacheKey() != again.CacheKey() {
			t.Errorf("round trip through %s changed the content address", wire)
		}
	})
}

// TestClientAgainstService drives the real handler over httptest: report
// decode, cache status progression, error mapping, and /stats.
func TestClientAgainstService(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	opts := core.Options{
		Benchmark: "allreduce", Ranks: 4, TimingOnly: true,
		Iters: 3, Warmup: 1, Sizes: []int{1024, 4096},
	}
	rep, status, err := c.Sweep(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheMiss || status.Cached() {
		t.Errorf("first sweep status = %q", status)
	}
	if rep.Benchmark != "allreduce" || rep.Ranks != 4 || len(rep.Rows) != 2 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Rows[0].Size != 1024 || rep.Rows[0].AvgUs <= 0 {
		t.Errorf("row = %+v", rep.Rows[0])
	}
	if rep.Failure != nil {
		t.Errorf("clean run decoded a failure: %+v", rep.Failure)
	}

	rep2, status, err := c.Sweep(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheHit || !status.Cached() {
		t.Errorf("second sweep status = %q", status)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Error("hit decoded differently from miss")
	}

	if _, _, err := c.Sweep(ctx, core.Options{Benchmark: "no_such_bench"}); err == nil {
		t.Error("unknown benchmark should surface the service's 400")
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.CacheMisses < 1 {
		t.Errorf("stats = %+v", st)
	}
}
