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

// Options configures one benchmark run. Zero values take OMB-style
// defaults via withDefaults.
type Options struct {
	Benchmark Benchmark
	Cluster   string
	Impl      netmodel.Impl
	Mode      Mode
	// Buffer is the Python buffer library (Py/Pickle modes).
	Buffer pybuf.Library
	// UseGPU binds ranks to GPUs and allocates device buffers.
	UseGPU bool
	// Ranks and PPN shape the job; pt2pt benchmarks need exactly 2 ranks
	// (multi_lat: any even count).
	Ranks, PPN int
	// MinSize and MaxSize bound the message-size sweep (bytes, powers of
	// two). Barrier ignores them.
	MinSize, MaxSize int
	// Iters/Warmup are per-size loop counts; sizes at or above
	// LargeThreshold use LargeIters/LargeWarmup, as OMB does.
	Iters, Warmup           int
	LargeThreshold          int
	LargeIters, LargeWarmup int
	// Window is the bandwidth-test window size.
	Window int
	// Pairs is the sender/receiver pair count of the multi-pair benchmarks
	// (mbw_mr, multi_bw); 0 means Ranks/2, the OSU default. Benchmarks
	// outside the multi-pair family ignore it.
	Pairs int
	// TimingOnly runs without payloads (huge-scale experiments).
	TimingOnly bool
	// Engine selects the runtime execution engine: "auto" (the default;
	// the discrete-event engine for timing-only runs, goroutines
	// otherwise), "goroutine", or "event" (timing-only runs only). Both
	// engines produce bit-identical virtual-time numbers.
	Engine string
	// NoFold disables the event engine's symmetry folding, forcing every
	// rank to execute individually. Folding changes no reported number —
	// the parity suite pins bit-identical virtual times either way — so
	// this exists for A/B measurement (the fold-speedup benchmarks) and as
	// an escape hatch. The goroutine engine never folds; it ignores this.
	NoFold bool
	// Sizes, when non-empty, is the explicit message-size axis, replacing
	// the MinSize/MaxSize power-of-two sweep — the crossover-scan
	// experiments step linearly through the switch region. Sizes must be
	// positive and strictly increasing.
	Sizes []int
	// DType is the element type (defaults: uint8 pt2pt, float32 reductions).
	DType mpi.DType
	// Profiler, when set, records the binding layer's staging phases.
	Profiler *mpi4py.Profiler
	// Tuning overrides the runtime's collective algorithm thresholds
	// (zero fields keep defaults); used by the ablation benchmarks.
	Tuning mpi.Tuning
	// Algorithms forces a named algorithm per collective, mirroring
	// MVAPICH2's MV2_*_ALGORITHM knobs: keys are collective names
	// ("bcast", "allreduce", "allgather", "alltoall", "reduce_scatter"),
	// values are registered algorithm names or their aliases ("ring",
	// "rd", "raben", ...). Names are canonicalised and validated; a nil
	// map takes the process default set via SetDefaultAlgorithms.
	Algorithms map[string]string
	// Faults is a deterministic fault-injection spec (see internal/faults:
	// "kill:rank=3,after=2:allreduce; noise:sigma=5us; jitter:link=0.1").
	// A run whose world fails mid-benchmark reports the structured failure
	// in Report.Failure instead of aborting; the empty string (after
	// SetDefaultFaults) simulates a perfect machine at zero cost.
	Faults string
}

// defaultEngine is the process-wide engine default applied when
// Options.Engine is empty; the CLIs' -engine flag sets it.
var defaultEngine = "auto"

// SetDefaultEngine installs the process-wide execution-engine default
// ("auto", "goroutine" or "event"). It is meant to be called once at CLI
// startup, before any Run.
func SetDefaultEngine(name string) { defaultEngine = name }

// defaultNoFold is the process-wide fold default applied when
// Options.NoFold is false; the CLIs' -fold=false flag sets it.
var defaultNoFold bool

// SetDefaultFold installs the process-wide symmetry-folding default for
// the event engine (true = fold, the normal setting). It is meant to be
// called once at CLI startup, before any Run.
func SetDefaultFold(fold bool) { defaultNoFold = !fold }

// engine resolves the options' engine choice. "auto" picks the
// discrete-event engine exactly when the run is timing-only: the event
// engine's payload path is not yet pinned by the data-carrying
// correctness suite, and the goroutine engine is the validated substrate
// for data-carrying runs.
func (o Options) engine() (mpi.Engine, error) {
	name := o.Engine
	if name == "" {
		name = defaultEngine
	}
	if strings.ToLower(name) == "auto" {
		if o.TimingOnly {
			return mpi.EngineEvent, nil
		}
		return mpi.EngineGoroutine, nil
	}
	eng, err := mpi.ParseEngine(strings.ToLower(name))
	if err != nil {
		return 0, fmt.Errorf("core: unknown engine %q (have auto, goroutine, event)", name)
	}
	if eng == mpi.EngineEvent && !o.TimingOnly {
		return 0, fmt.Errorf("core: -engine=%s needs a timing-only run: the event engine's "+
			"payload path is not yet pinned by the data-carrying correctness suite (see "+
			"ROADMAP.md); pass -timing-only, or use -engine=goroutine for data-carrying runs", name)
	}
	return eng, nil
}

// defaultFaults is the process-wide fault-plan default applied when
// Options.Faults is empty; the CLIs' -faults flag sets it.
var defaultFaults string

// SetDefaultFaults installs the process-wide fault-injection spec. It is
// meant to be called once at CLI startup, before any Run.
func SetDefaultFaults(spec string) { defaultFaults = spec }

// defaultAlgorithms is the process-wide forced-algorithm default applied
// when Options.Algorithms is nil -- the CLIs' -algorithm flag sets it, the
// analogue of exporting MV2_*_ALGORITHM into a job's environment.
var defaultAlgorithms map[string]string

// SetDefaultAlgorithms installs the process-wide forced-algorithm default.
// It is meant to be called once at CLI startup, before any Run.
func SetDefaultAlgorithms(m map[string]string) { defaultAlgorithms = m }

// defaultTuningTable is the process-wide placement-indexed tuning table
// (the artifact ombtune generates); the CLIs' -tuning-table flag sets it.
var defaultTuningTable *mpi.TuningTable

// SetDefaultTuningTable installs a generated tuning table as the weakest
// process-wide default: a run whose placement matches an entry takes the
// entry's thresholds (unless Options.Tuning overrides any knob) and its
// forced algorithms (unless Options.Algorithms or SetDefaultAlgorithms
// supplies a map). It is meant to be called once at CLI startup, before
// any Run. Pass nil to clear.
func SetDefaultTuningTable(t *mpi.TuningTable) { defaultTuningTable = t }

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
// map.
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
		out[c] = canon
	}
	return out, nil
}

// withDefaults fills OMB-style defaults and normalises sizes. The
// benchmark name is canonicalised through the registry so aliases behave
// exactly like the canonical spelling everywhere downstream.
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
	if o.Algorithms == nil {
		o.Algorithms = defaultAlgorithms
	}
	// The tuning table is the weakest default: explicit Options fields and
	// the -algorithm process default both beat a matching table entry.
	if pol, ok := defaultTuningTable.Lookup(o.Ranks, o.PPN); ok {
		if o.Tuning == (mpi.Tuning{}) {
			o.Tuning = pol.Tuning
		}
		if o.Algorithms == nil && len(pol.Forced) > 0 {
			forced := make(map[string]string, len(pol.Forced))
			for coll, name := range pol.Forced {
				forced[string(coll)] = name
			}
			o.Algorithms = forced
		}
	}
	if o.Faults == "" {
		o.Faults = defaultFaults
	}
	if defaultNoFold {
		o.NoFold = true
	}
	return o
}

// validate rejects inconsistent configurations. Every benchmark-specific
// rule comes from the registry spec: supported modes and engines, minimum
// rank counts, and the spec's own Validate hook.
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
	if o.UseGPU && o.Mode != ModeC && !o.Buffer.OnGPU() {
		return fmt.Errorf("core: GPU runs need a GPU buffer library, got %v", o.Buffer)
	}
	if !o.UseGPU && o.Buffer.OnGPU() {
		return fmt.Errorf("core: buffer library %v needs UseGPU", o.Buffer)
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
	eng, err := o.engine()
	if err != nil {
		return err
	}
	if !spec.supportsEngine(eng) {
		return fmt.Errorf("core: %s does not run on the %s engine", spec.Name, eng)
	}
	if _, err := o.mpiAlgorithms(); err != nil {
		return err
	}
	if _, err := faults.Parse(o.Faults); err != nil {
		return fmt.Errorf("core: -faults: %w", err)
	}
	return nil
}
