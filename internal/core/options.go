// Package core implements the OMB-Py benchmark suite itself: the paper's
// primary contribution. Workloads are self-describing entries in an open
// registry (see registry.go): the built-in set covers every benchmark of
// the paper's Table II -- point-to-point latency, bandwidth, bi-directional
// bandwidth and multi-pair latency; the nine blocking collectives; and the
// four vector variants -- plus the nonblocking overlap family and the
// multi-pair bandwidth / message-rate family, and new workloads are a
// RegisterBenchmark call away. Each benchmark is runnable in three modes:
// C (the OMB baseline calling the native runtime directly), Py (OMB-Py
// through the mpi4py binding layer with a chosen buffer library), and
// Pickle (OMB-Py through the serializing object API). Timing is virtual
// and deterministic; reported numbers depend only on the calibrated cost
// models.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/mpi4py"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
	"repro/internal/topology"
)

// Mode selects the language binding under test.
type Mode int

// Benchmark modes.
const (
	// ModeC is the OMB baseline: benchmarks call the native runtime.
	ModeC Mode = iota
	// ModePy is OMB-Py with direct buffers (mpi4py upper-case methods).
	ModePy
	// ModePickle is OMB-Py with serialized objects (lower-case methods).
	ModePickle
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeC:
		return "omb-c"
	case ModePy:
		return "omb-py"
	case ModePickle:
		return "omb-py-pickle"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a mode by name.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "c", "omb", "omb-c":
		return ModeC, nil
	case "py", "omb-py", "python":
		return ModePy, nil
	case "pickle", "omb-py-pickle":
		return ModePickle, nil
	default:
		return 0, fmt.Errorf("core: unknown mode %q", s)
	}
}

// MarshalText implements encoding.TextMarshaler with the String name.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler through ParseMode; the
// empty string is ModeC, the zero value, as an omitted mode is.
func (m *Mode) UnmarshalText(text []byte) (err error) {
	*m = ModeC
	if len(text) > 0 {
		*m, err = ParseMode(string(text))
	}
	return err
}

// Options configures one benchmark run. Zero values take OMB-style
// defaults via withDefaults. The JSON form is the POST /sweep wire form and
// what CacheKey hashes.
type Options struct {
	Benchmark Benchmark     `json:"benchmark"`
	Cluster   string        `json:"cluster,omitempty"`
	Impl      netmodel.Impl `json:"impl,omitempty"`
	Mode      Mode          `json:"mode,omitempty"`
	// Buffer is the Python buffer library (Py/Pickle modes).
	Buffer pybuf.Library `json:"buffer,omitempty"`
	// UseGPU binds ranks to GPUs and allocates device buffers.
	UseGPU bool `json:"gpu,omitempty"`
	// Ranks and PPN shape the job; pt2pt benchmarks need exactly 2 ranks
	// (multi_lat: any even count).
	Ranks int `json:"ranks,omitempty"`
	PPN   int `json:"ppn,omitempty"`
	// MinSize and MaxSize bound the message-size sweep (bytes, powers of
	// two). Barrier ignores them.
	MinSize int `json:"min_size,omitempty"`
	MaxSize int `json:"max_size,omitempty"`
	// Iters/Warmup are per-size loop counts; sizes at or above
	// LargeThreshold use LargeIters/LargeWarmup, as OMB does.
	Iters          int `json:"iters,omitempty"`
	Warmup         int `json:"warmup,omitempty"`
	LargeThreshold int `json:"large_threshold,omitempty"`
	LargeIters     int `json:"large_iters,omitempty"`
	LargeWarmup    int `json:"large_warmup,omitempty"`
	// Window is the bandwidth-test window size.
	Window int `json:"window,omitempty"`
	// Pairs is the sender/receiver pair count of the multi-pair benchmarks
	// (mbw_mr, multi_bw); 0 means Ranks/2, the OSU default. Benchmarks
	// outside the multi-pair family ignore it.
	Pairs int `json:"pairs,omitempty"`
	// TimingOnly runs without payloads (huge-scale experiments): C mode
	// passes nil slices and Py mode storage-less buffers through the same
	// calls as a data run. Pickle mode serializes real objects and refuses
	// it.
	TimingOnly bool `json:"timing_only,omitempty"`
	// NoFold disables the event loop's symmetry folding, forcing every
	// rank to execute individually. Folding changes no reported number —
	// the parity suite pins bit-identical virtual times either way — so
	// this exists for A/B measurement (the fold-speedup benchmarks) and as
	// an escape hatch.
	NoFold bool `json:"no_fold,omitempty"`
	// Sizes, when non-empty, is the explicit message-size axis, replacing
	// the MinSize/MaxSize power-of-two sweep — the crossover-scan
	// experiments step linearly through the switch region. Sizes must be
	// positive and strictly increasing.
	Sizes []int `json:"sizes,omitempty"`
	// DType is the element type (defaults: uint8 pt2pt, float32 reductions).
	DType mpi.DType `json:"dtype,omitempty"`
	// Profiler, when set, records the binding layer's staging phases. A
	// hook has no wire form.
	Profiler *mpi4py.Profiler `json:"-"`
	// Tuning overrides the runtime's collective algorithm thresholds
	// (zero fields keep defaults); used by the ablation benchmarks.
	Tuning mpi.Tuning `json:"tuning,omitzero"`
	// Algorithms forces a named algorithm per collective, mirroring
	// MVAPICH2's MV2_*_ALGORITHM knobs: keys are collective names
	// ("bcast", "allreduce", "allgather", "alltoall", "reduce_scatter"),
	// values are registered algorithm names or their aliases ("ring",
	// "rd", "raben", ...). Names are canonicalised and validated; a nil
	// map takes Defaults.Algorithms.
	Algorithms map[string]string `json:"algorithms,omitempty"`
	// Faults is a deterministic fault-injection spec (see internal/faults:
	// "kill:rank=3,after=2:allreduce; noise:sigma=5us; jitter:link=0.1").
	// A run whose world fails mid-benchmark reports the structured failure
	// in Report.Failure instead of aborting; the empty string (after
	// Defaults.Faults) simulates a perfect machine at zero cost.
	Faults string `json:"faults,omitempty"`
}

// Defaults are the run-wide settings the CLIs build from their flags, one
// field per flag. They fill only what a run's Options leave unset, and the
// zero value changes nothing. Runs see them through Sweep.Defaults or
// tune.Config.Defaults; core keeps no process-wide defaults.
type Defaults struct {
	// NoFold (-fold=false) turns symmetry folding off in every run.
	NoFold bool
	// Faults (-faults) is the plan of runs whose Options.Faults is empty.
	Faults string
	// Algorithms (-algorithm) forces algorithms in runs whose
	// Options.Algorithms is nil, as MV2_*_ALGORITHM in a job's environment.
	Algorithms map[string]string
	// TuningTable (-tuning-table) is the weakest default: a run whose
	// placement matches an entry takes its thresholds unless Options.Tuning
	// sets any knob, and its forced algorithms unless Options.Algorithms or
	// Defaults.Algorithms supplies a map.
	TuningTable *mpi.TuningTable
	// Timeout (-timeout) bounds each run's wall-clock time; expiry is a
	// `timeout` Report.Failure. Zero means no budget.
	Timeout time.Duration
	// SweepWorkers (-parallel) is the worker count of sweeps whose Workers
	// is zero; below 1 runs them serially.
	SweepWorkers int
}

// Apply returns o with d filled into the fields o leaves unset. The tuning
// table is consulted at the placement the run will have, after
// withDefaults.
func (d Defaults) Apply(o Options) Options {
	if o.Algorithms == nil {
		o.Algorithms = d.Algorithms
	}
	if d.TuningTable != nil {
		eff := o.withDefaults()
		if pol, ok := d.TuningTable.Lookup(eff.Ranks, eff.PPN); ok {
			if o.Tuning == (mpi.Tuning{}) {
				o.Tuning = pol.Tuning
			}
			if o.Algorithms == nil && len(pol.Forced) > 0 {
				o.Algorithms = make(map[string]string, len(pol.Forced))
				for coll, name := range pol.Forced {
					o.Algorithms[string(coll)] = name
				}
			}
		}
	}
	if o.Faults == "" {
		o.Faults = d.Faults
	}
	if d.NoFold {
		o.NoFold = true
	}
	return o
}

// ParseAlgorithmList parses a comma-separated list of collective=algorithm
// pairs ("allgather=ring,allreduce=rd") into an Options.Algorithms map,
// validating both halves against the runtime registry.
func ParseAlgorithmList(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		coll, name, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("core: -algorithm entry %q is not collective=algorithm", pair)
		}
		c, err := mpi.ParseCollective(coll)
		if err != nil {
			return nil, err
		}
		canon, err := mpi.CanonicalAlgorithm(c, name)
		if err != nil {
			return nil, err
		}
		out[string(c)] = canon
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: -algorithm list %q is empty", s)
	}
	return out, nil
}

// mpiAlgorithms canonicalises Options.Algorithms into the runtime's forced
// map. Two keys naming one collective ("bcast" and "broadcast") are an
// error: which of them won would depend on map order.
func (o Options) mpiAlgorithms() (map[mpi.Collective]string, error) {
	if len(o.Algorithms) == 0 {
		return nil, nil
	}
	out := make(map[mpi.Collective]string, len(o.Algorithms))
	for coll, name := range o.Algorithms {
		if name == "" {
			continue
		}
		c, err := mpi.ParseCollective(coll)
		if err != nil {
			return nil, err
		}
		canon, err := mpi.CanonicalAlgorithm(c, name)
		if err != nil {
			return nil, err
		}
		if _, dup := out[c]; dup {
			return nil, fmt.Errorf("core: Algorithms forces collective %s twice", c)
		}
		out[c] = canon
	}
	return out, nil
}

// withDefaults fills OMB-style defaults and normalises sizes. It reads
// nothing but o. The benchmark and forced algorithm names are
// canonicalised through the registries so aliases behave exactly like the
// canonical spelling everywhere downstream; a forced map that does not
// canonicalise is kept as given, for validate to reject.
func (o Options) withDefaults() Options {
	if spec, err := LookupBenchmark(string(o.Benchmark)); err == nil {
		o.Benchmark = spec.Name
	}
	if o.Cluster == "" {
		o.Cluster = topology.Frontera.Name
	}
	if o.Impl == "" {
		o.Impl = netmodel.MVAPICH2
	}
	if o.Ranks == 0 {
		o.Ranks = 2
	}
	if o.PPN == 0 {
		o.PPN = 1
	}
	if o.MinSize == 0 {
		o.MinSize = 1
	}
	if o.MaxSize == 0 {
		o.MaxSize = 1 << 20
	}
	if o.Iters == 0 {
		o.Iters = 100
	}
	if o.Warmup == 0 {
		o.Warmup = 10
	}
	if o.LargeThreshold == 0 {
		o.LargeThreshold = 8192
	}
	if o.LargeIters == 0 {
		o.LargeIters = 20
	}
	if o.LargeWarmup == 0 {
		o.LargeWarmup = 2
	}
	if o.Window == 0 {
		o.Window = 64
	}
	if o.DType == 0 && o.Benchmark.reduces() {
		o.DType = mpi.Float32
	}
	if es := o.DType.Size(); o.MinSize < es {
		o.MinSize = es
	}
	if algos, err := o.mpiAlgorithms(); err == nil && len(o.Algorithms) > 0 {
		o.Algorithms = make(map[string]string, len(algos))
		for coll, name := range algos {
			o.Algorithms[string(coll)] = name
		}
	}
	return o
}

// validate rejects inconsistent configurations. Every benchmark-specific
// rule comes from the registry spec: supported modes, minimum rank counts,
// and the spec's own Validate hook.
func (o Options) validate() error {
	if o.Benchmark == "" {
		return fmt.Errorf("core: Options.Benchmark is required")
	}
	spec, err := LookupBenchmark(string(o.Benchmark))
	if err != nil {
		return err
	}
	if spec.MinRanks > 0 && o.Ranks < spec.MinRanks {
		return fmt.Errorf("core: %s needs at least %d ranks, got %d", spec.Name, spec.MinRanks, o.Ranks)
	}
	if !spec.SupportsMode(o.Mode) {
		return fmt.Errorf("core: %s runs in modes %s only, not %s", spec.Name, spec.modeNames(), o.Mode)
	}
	if spec.Validate != nil {
		if err := spec.Validate(o); err != nil {
			return err
		}
	}
	if o.Pairs < 0 {
		return fmt.Errorf("core: Pairs %d must not be negative", o.Pairs)
	}
	// Zero means the default (withDefaults); a negative count would run no
	// loop, or a short one, and divide its time by the count.
	for _, n := range [...]struct {
		name string
		v    int
	}{{"Iters", o.Iters}, {"Warmup", o.Warmup}, {"LargeIters", o.LargeIters},
		{"LargeWarmup", o.LargeWarmup}, {"Window", o.Window}} {
		if n.v < 0 {
			return fmt.Errorf("core: %s %d must not be negative", n.name, n.v)
		}
	}
	if o.UseGPU && o.Mode != ModeC && !o.Buffer.OnGPU() {
		return fmt.Errorf("core: GPU runs need a GPU buffer library, got %v", o.Buffer)
	}
	if !o.UseGPU && o.Buffer.OnGPU() {
		return fmt.Errorf("core: buffer library %v needs UseGPU", o.Buffer)
	}
	if o.Mode == ModePickle && o.TimingOnly {
		return fmt.Errorf("core: pickle mode serializes real objects and cannot run timing-only; use -mode py")
	}
	if o.Mode != ModeC && !o.TimingOnly && o.Buffer == pybuf.Bytearray && o.DType != mpi.Uint8 {
		return fmt.Errorf("core: %s moves %v elements, but bytearray buffers hold uint8; use -buffer numpy",
			spec.Name, o.DType)
	}
	if o.MinSize > o.MaxSize {
		return fmt.Errorf("core: MinSize %d > MaxSize %d", o.MinSize, o.MaxSize)
	}
	for i, s := range o.Sizes {
		if s <= 0 {
			return fmt.Errorf("core: Sizes[%d] = %d must be positive", i, s)
		}
		if i > 0 && s <= o.Sizes[i-1] {
			return fmt.Errorf("core: Sizes must be strictly increasing (%d after %d)", s, o.Sizes[i-1])
		}
	}
	if _, err := o.mpiAlgorithms(); err != nil {
		return err
	}
	if _, err := faults.Parse(o.Faults); err != nil {
		return fmt.Errorf("core: -faults: %w", err)
	}
	return nil
}
