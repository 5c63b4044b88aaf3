package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
	"repro/internal/stats"
)

func init() {
	// A workload that panics before running, for the panic-isolation test:
	// its Validate hook fires inside the flight leader, past the decode
	// checks, exactly where a latent bug in a real workload would.
	core.RegisterBenchmark(core.BenchmarkSpec{
		Name:     "serve_test_panic",
		Kind:     core.KindCollective,
		Group:    "serve-test",
		Summary:  "panics on validate (serve panic-isolation test)",
		Validate: func(o core.Options) error { panic("serve_test_panic: boom") },
		Body:     func(b *core.Bench) (stats.Row, error) { return stats.Row{}, nil },
	})
}

// fastSweep is a sub-millisecond request body.
func fastSweep(iters int) string {
	return fmt.Sprintf(`{"benchmark":"latency","mode":"c","iters":%d,"warmup":1,"max_size":4}`, iters)
}

// slowSweep is a request body that takes long enough to still be in flight
// when a test pokes at it (a cold 1024-rank sweep).
func slowSweep(iters int) string {
	return fmt.Sprintf(`{"benchmark":"allreduce","mode":"c","ranks":1024,"ppn":64,"timing_only":true,`+
		`"min_size":16384,"max_size":65536,"iters":%d,"warmup":2}`, iters)
}

func post(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/sweep", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestSweepCacheByteIdentical pins the cache contract: the second request
// for the same configuration is a hit and its body is byte-identical to
// the miss that computed it — determinism end to end through the service.
func TestSweepCacheByteIdentical(t *testing.T) {
	s := NewServer(Config{})
	first := post(t, s.Handler(), fastSweep(3))
	if first.Code != http.StatusOK {
		t.Fatalf("first POST: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first POST X-Cache = %q, want miss", got)
	}
	second := post(t, s.Handler(), fastSweep(3))
	if second.Code != http.StatusOK {
		t.Fatalf("second POST: %d %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second POST X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cache hit body differs from the miss body")
	}
	if first.Header().Get("X-Cache-Key") != second.Header().Get("X-Cache-Key") {
		t.Error("identical requests got different cache keys")
	}
	// Spelling must not split the cache: an aliased, reordered, defaulted
	// variant of the same configuration hits the same entry.
	aliased := post(t, s.Handler(), `{"warmup":1,"iters":3,"max_size":4,"mode":"c","benchmark":"latency","cluster":"frontera"}`)
	if got := aliased.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("canonically-equal request X-Cache = %q, want hit", got)
	}
	if snap := s.Snapshot(); snap.CacheHits != 2 || snap.CacheMisses != 1 {
		t.Errorf("counters = %+v, want 2 hits / 1 miss", snap)
	}
}

// TestSweepCoalesce pins singleflight: concurrent identical cold requests
// share one computation (exactly one miss) and all read the same bytes.
func TestSweepCoalesce(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(t, s.Handler(), slowSweep(10))
			if rec.Code == http.StatusOK {
				bodies[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("client %d got no 200 response", i)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("client %d read different bytes", i)
		}
	}
	snap := s.Snapshot()
	if snap.CacheMisses != 1 {
		t.Errorf("%d misses for %d identical concurrent requests, want exactly 1 computation", snap.CacheMisses, clients)
	}
	if snap.Coalesced+snap.CacheHits != clients-1 {
		t.Errorf("coalesced %d + hits %d, want %d followers", snap.Coalesced, snap.CacheHits, clients-1)
	}
}

// TestSweepShedsWhenOverloaded pins backpressure: once the worker pool and
// the admission queue are full, fresh work is refused immediately with
// 429 + Retry-After instead of queuing without bound.
func TestSweepShedsWhenOverloaded(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	var wg sync.WaitGroup
	// Fill the pool (1) and the queue (1) with distinct slow keys.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(t, s.Handler(), slowSweep(40+i))
		}(i)
	}
	defer func() { close(release); wg.Wait() }()
	deadline := time.Now().Add(5 * time.Second)
	for s.backlog.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("backlog never filled")
		}
		time.Sleep(time.Millisecond)
	}
	rec := post(t, s.Handler(), fastSweep(9))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded POST answered %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	if snap := s.Snapshot(); snap.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", snap.Shed)
	}
}

// TestClientDisconnectCancelsRun pins disconnect cancellation: when the
// only client waiting on a computation goes away, the simulation is
// canceled (the backlog drains without the run completing) and nothing is
// cached — a later identical request recomputes.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	body := slowSweep(60)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/sweep", strings.NewReader(body)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	// Wait until the flight is admitted, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for s.backlog.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	for s.backlog.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled flight never drained: disconnect did not cancel the run")
		}
		time.Sleep(time.Millisecond)
	}
	// The canceled outcome must not have been cached.
	rec := post(t, s.Handler(), body)
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("request after disconnect X-Cache = %q, want miss (canceled results are not cacheable)", got)
	}
	var rep struct {
		Failure *core.Failure `json:"failure"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Errorf("recomputed run inherited failure %+v", rep.Failure)
	}
}

// TestRequestTimeoutClassified pins the per-request deadline: a simulation
// over budget answers 200 with a structured "timeout" failure, and the
// non-deterministic outcome is not cached.
func TestRequestTimeoutClassified(t *testing.T) {
	s := NewServer(Config{RequestTimeout: 5 * time.Millisecond})
	rec := post(t, s.Handler(), slowSweep(80))
	if rec.Code != http.StatusOK {
		t.Fatalf("timed-out POST answered %d %s, want 200 with a classified failure", rec.Code, rec.Body)
	}
	var rep struct {
		Failure *core.Failure `json:"failure"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failure == nil || rep.Failure.Code != "timeout" {
		t.Fatalf("failure = %+v, want code timeout", rep.Failure)
	}
	if s.cache.len() != 0 {
		t.Error("timed-out result was cached")
	}
}

// TestBadRequests pins the 400 surface: malformed JSON, unknown fields
// (typo'd knobs must not silently default), and options the simulator
// rejects.
func TestBadRequests(t *testing.T) {
	s := NewServer(Config{})
	for name, body := range map[string]string{
		"malformed":       `{"benchmark":`,
		"unknown_field":   `{"benchmark":"latency","itres":5}`,
		"no_benchmark":    `{"mode":"c"}`,
		"bad_mode":        `{"benchmark":"latency","mode":"fortran"}`,
		"unknown_bench":   `{"benchmark":"nosuch"}`,
		"invalid_options": `{"benchmark":"latency","ranks":7}`,
		"retired_knob":    `{"benchmark":"latency","no_schedfold":true}`,
		"engine_field":    `{"benchmark":"latency","engine":"event"}`,
		"trailing_data":   `{"benchmark":"latency"} trailing garbage`,
		// A reducing py-mode sweep moves float32 elements, which the
		// default bytearray buffer cannot hold.
		"bytearray_float": `{"benchmark":"allreduce","mode":"py"}`,
		// An infinite noise sigma is refused by the fault-spec parser;
		// run, it would reach NaN latencies that fail JSON encoding.
		"noise_inf": `{"benchmark":"latency","faults":"noise:sigma=inf"}`,
		// Huge finite magnitudes overflow a clock the same way; the parser
		// bounds them.
		"noise_huge":  `{"benchmark":"latency","faults":"noise:sigma=1e307"}`,
		"jitter_huge": `{"benchmark":"latency","faults":"jitter:link=1e308"}`,
		// Enumerations are strings on the wire, never their numbers.
		"mode_number": `{"benchmark":"latency","mode":1}`,
		// Pickle mode serializes real objects, so it refuses timing-only
		// runs; run, the object path has no storage to pickle.
		"pickle_timing_only": `{"benchmark":"allreduce","mode":"pickle","ranks":4,"timing_only":true}`,
		// A pickled bibw exchange sends before it receives and deadlocks
		// at the first rendezvous size.
		"bibw_pickle": `{"benchmark":"bibw","mode":"pickle"}`,
	} {
		t.Run(name, func(t *testing.T) {
			rec := post(t, s.Handler(), body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("answered %d %s, want 400", rec.Code, rec.Body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("400 body %q is not an error object", rec.Body)
			}
		})
	}
	// Anything after the request object is refused rather than dropped,
	// garbage or a second object alike, and the answer names the problem;
	// trailing whitespace is not data.
	for _, body := range []string{`{"benchmark":"latency"} trailing garbage`, fastSweep(2) + fastSweep(3)} {
		if rec := post(t, s.Handler(), body); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "trailing data") {
			t.Errorf("body %s answered %d %s, want a 400 naming the trailing data", body, rec.Code, rec.Body)
		}
	}
	if rec := post(t, s.Handler(), fastSweep(2)+"\n \n"); rec.Code != http.StatusOK {
		t.Errorf("body with trailing whitespace answered %d %s, want 200", rec.Code, rec.Body)
	}
	// The bytearray mismatch is refused by option validation, not by a
	// rank partway into the simulation, and the answer names the fix.
	if rec := post(t, s.Handler(), `{"benchmark":"allreduce","mode":"py"}`); !strings.Contains(rec.Body.String(), "-buffer numpy") {
		t.Errorf("bytearray/float32 sweep answered %s, want the validation error naming -buffer numpy", rec.Body)
	}
	if rec := post(t, s.Handler(), `{"benchmark":"latency","faults":"noise:sigma=inf"}`); !strings.Contains(rec.Body.String(), "-faults") {
		t.Errorf("infinite noise sweep answered %s, want the validation error naming -faults", rec.Body)
	}
	if rec := post(t, s.Handler(), `{"benchmark":"bcast","mode":"pickle","ranks":4,"timing_only":true}`); !strings.Contains(rec.Body.String(), "-mode py") {
		t.Errorf("timing-only pickle sweep answered %s, want the validation error naming -mode py", rec.Body)
	}
}

// TestDecodeWireForm pins the POST /sweep wire form: each body decodes to
// the same options it always has. Enumerations take every spelling their
// CLI parsers accept, and an empty enumeration string is the zero value,
// like an omitted field.
func TestDecodeWireForm(t *testing.T) {
	for body, want := range map[string]core.Options{
		`{"benchmark":"latency","mode":"c"}`:                       {Benchmark: "latency"},
		`{"benchmark":"latency","mode":"omb-py","buffer":"numpy"}`: {Benchmark: "latency", Mode: core.ModePy, Buffer: pybuf.NumPy},
		`{"benchmark":"allreduce","mode":"pickle","buffer":"cupy","gpu":true,"dtype":"f64"}`: {
			Benchmark: "allreduce", Mode: core.ModePickle, Buffer: pybuf.CuPy, UseGPU: true, DType: mpi.Float64},
		`{"benchmark":"latency","mode":"","buffer":"","dtype":"","sizes":null,"tuning":null,"algorithms":null}`: {
			Benchmark: "latency"},
		`{"benchmark":"allreduce","cluster":"ri2","impl":"intelmpi","mode":"py","buffer":"numpy","ranks":16,` +
			`"ppn":2,"min_size":4,"max_size":64,"iters":3,"warmup":1,"large_threshold":16,"large_iters":2,` +
			`"large_warmup":1,"window":8,"pairs":4,"timing_only":true,"no_fold":true,"sizes":[4,8],"dtype":"float32",` +
			`"tuning":{"bcast_scatter_ring_min":1,"allreduce_rabenseifner_min":2,"allgather_rd_max_total":3,` +
			`"allgather_bruck_max_total":4,"alltoall_bruck_max_block":5},"algorithms":{"allreduce":"raben"},` +
			`"faults":"noise:sigma=2us; seed:7"}`: {
			Benchmark: "allreduce", Cluster: "ri2", Impl: netmodel.IntelMPI, Mode: core.ModePy,
			Buffer: pybuf.NumPy, Ranks: 16, PPN: 2, MinSize: 4, MaxSize: 64, Iters: 3, Warmup: 1,
			LargeThreshold: 16, LargeIters: 2, LargeWarmup: 1, Window: 8, Pairs: 4, TimingOnly: true,
			NoFold: true, Sizes: []int{4, 8}, DType: mpi.Float32,
			Tuning: mpi.Tuning{BcastScatterRingMin: 1, AllreduceRabenseifnerMin: 2,
				AllgatherRDMaxTotal: 3, AllgatherBruckMaxTotal: 4, AlltoallBruckMaxBlock: 5},
			Algorithms: map[string]string{"allreduce": "raben"},
			Faults:     "noise:sigma=2us; seed:7",
		},
	} {
		if got, err := decodeOptions(strings.NewReader(body)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes to\n%+v, %v; want\n%+v", body, got, err, want)
		}
	}
}

// TestPanicIsolation pins that a panicking workload answers 500 and the
// service keeps serving.
func TestPanicIsolation(t *testing.T) {
	s := NewServer(Config{})
	rec := post(t, s.Handler(), `{"benchmark":"serve_test_panic"}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking sweep answered %d %s, want 500", rec.Code, rec.Body)
	}
	if snap := s.Snapshot(); snap.Panics != 1 {
		t.Errorf("panic counter = %d, want 1", snap.Panics)
	}
	// Still alive and serving.
	if rec := post(t, s.Handler(), fastSweep(4)); rec.Code != http.StatusOK {
		t.Fatalf("POST after panic answered %d, want 200", rec.Code)
	}
	if rec := get(t, s.Handler(), "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic answered %d", rec.Code)
	}
}

// TestDrain pins the drain sequence: readiness flips to 503 for load
// balancers, new sweeps are refused, liveness stays 200.
func TestDrain(t *testing.T) {
	s := NewServer(Config{})
	if rec := get(t, s.Handler(), "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", rec.Code)
	}
	s.StartDrain()
	if rec := get(t, s.Handler(), "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", rec.Code)
	}
	if rec := post(t, s.Handler(), fastSweep(5)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("sweep while draining: %d, want 503", rec.Code)
	}
	if rec := get(t, s.Handler(), "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (liveness is not readiness)", rec.Code)
	}
}

// TestBenchmarksEndpoint pins the registry listing.
func TestBenchmarksEndpoint(t *testing.T) {
	s := NewServer(Config{})
	rec := get(t, s.Handler(), "/benchmarks")
	if rec.Code != http.StatusOK {
		t.Fatalf("benchmarks: %d", rec.Code)
	}
	var infos []benchmarkInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	byName := map[string]benchmarkInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	if info, ok := byName["allreduce"]; !ok || info.Collective != "allreduce" || info.Kind != "collective" {
		t.Errorf("allreduce entry = %+v, want collective metadata", info)
	}
	if info, ok := byName["latency"]; !ok || info.Kind != "pt2pt" {
		t.Errorf("latency entry = %+v, want pt2pt", info)
	}
}

// TestCacheLRUEviction pins the bound: the cache never exceeds its
// capacity and evicts least-recently-used first.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	c.get("a") // refresh a; b is now oldest
	c.put("c", []byte("C"))
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction; LRU order ignored")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently-used a was evicted")
	}
}
