package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// childResult is what one repetition reports to the parent.
type childResult struct {
	WallS     float64   `json:"wall_s"`
	OpsMs     []float64 `json:"ops_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	Digest    string    `json:"digest"`
	// Samples counts CPU-profile samples per layer; Layer holds the
	// workload's per-layer counters and times. Both only when traced.
	Samples map[string]int64   `json:"samples,omitempty"`
	Layer   map[string]float64 `json:"layer,omitempty"`
}

// childMain runs one repetition: args are the workload's trace file path
// ("" for an untraced repetition). Inputs arrive on stdin; the ready line
// and the result go to file descriptor 3, so whatever the program prints
// on stdout cannot corrupt the protocol.
func childMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "bench child: want one argument, the trace file")
		return 2
	}
	proto := os.NewFile(3, "protocol")
	if proto == nil {
		fmt.Fprintln(os.Stderr, "bench child: no protocol descriptor")
		return 2
	}
	var in input
	if err := json.NewDecoder(os.Stdin).Decode(&in); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: decoding inputs:", err)
		return 2
	}
	w, err := workloadByName(in.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	r := &rec{traced: args[0] != "", proto: proto, outputs: map[string][]byte{}, layer: map[string]float64{}}
	if err := w.run(&in, r); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %s: %v\n", w.name, err)
		return 1
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if r.traced {
		if err := r.writeTrace(args[0]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
	}
	if err := json.NewEncoder(proto).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: writing result:", err)
		return 1
	}
	return 0
}

// rec records one repetition: the timed region, every call the benchmark
// makes into the program (an op), the outputs the digest covers and, when traced, a
// CPU profile, spans and per-layer numbers.
type rec struct {
	traced bool
	proto  io.Writer

	t0      time.Time
	wall    time.Duration
	profile bytes.Buffer

	mu        sync.Mutex // ops may complete on several goroutines
	opsMs     []float64
	attempted int
	failed    int
	errors    []string
	outputs   map[string][]byte
	spans     []span
	layer     map[string]float64
}

// start ends set-up: it tells the parent the child is ready and opens the
// timed region.
func (r *rec) start() error {
	if _, err := io.WriteString(r.proto, "ready\n"); err != nil {
		return fmt.Errorf("signalling ready: %w", err)
	}
	if r.traced {
		if err := pprof.StartCPUProfile(&r.profile); err != nil {
			return err
		}
	}
	r.t0 = time.Now()
	return nil
}

// stop closes the timed region. Work after it (probes, snapshots) is
// neither timed nor profiled.
func (r *rec) stop() {
	r.wall = time.Since(r.t0)
	if r.traced {
		pprof.StopCPUProfile()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.set("go.alloc_gb", float64(ms.TotalAlloc)/1e9)
		r.set("go.gc_cycles", float64(ms.NumGC))
	}
}

// op records one call into the program that began at begin and ends now: its
// latency, its span, and its failure if err is set.
func (r *rec) op(cat, name string, tid int, begin time.Time, err error) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opsMs = append(r.opsMs, float64(end.Sub(begin).Nanoseconds())/1e6)
	r.attempted++
	if err != nil {
		r.failed++
		r.errors = append(r.errors, fmt.Sprintf("%s %s: %v", cat, name, err))
	}
	r.spanLocked(cat, name, tid, begin, end, err)
}

// span records a call that is not an op (an evaluator memo hit).
func (r *rec) span(cat, name string, tid int, begin, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spanLocked(cat, name, tid, begin, end, nil)
}

func (r *rec) spanLocked(cat, name string, tid int, begin, end time.Time, err error) {
	if !r.traced {
		return
	}
	s := span{Name: name, Cat: cat, Ph: "X", PID: 1, TID: tid,
		TS: float64(begin.Sub(r.t0).Nanoseconds()) / 1e3, Dur: float64(end.Sub(begin).Nanoseconds()) / 1e3}
	if err != nil {
		s.Args = map[string]string{"error": err.Error()}
	}
	r.spans = append(r.spans, s)
}

// check counts one correctness check of the outputs as an operation.
func (r *rec) check(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.errors = append(r.errors, fmt.Sprintf("%s: %v", what, err))
	}
}

// output adds one keyed output to the repetition's digest.
func (r *rec) output(key string, b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outputs[key] = b
}

// set records a per-layer number.
func (r *rec) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layer[name] = v
}

func (r *rec) result() (childResult, error) {
	res := childResult{
		WallS:     r.wall.Seconds(),
		OpsMs:     r.opsMs,
		Attempted: r.attempted,
		Failed:    r.failed,
		Errors:    r.errors,
		Digest:    digestOutputs(r.outputs),
	}
	if !r.traced {
		return res, nil
	}
	stacks, err := decodeProfile(r.profile.Bytes())
	if err != nil {
		return res, err
	}
	res.Samples = map[string]int64{}
	for _, s := range stacks {
		res.Samples[stackLayer(s.frames)] += s.count
	}
	res.Layer = r.layer
	return res, nil
}

// span is one Chrome Trace Event Format complete event ("ph":"X"); ts and
// dur are microseconds from the start of the timed region.
type span struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeTrace writes the spans in a form chrome://tracing and Perfetto load.
func (r *rec) writeTrace(file string) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		TraceEvents     []span `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}{r.spans, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(file, b, 0o644)
}
