package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// This file implements the open benchmark registry: every workload the
// suite can run is a self-describing BenchmarkSpec, and the run loop,
// option validation, report columns and CLI listings are all derived from
// the registered metadata. It mirrors the collective-algorithm registry in
// internal/mpi/registry.go one layer up: adding a workload is a
// RegisterBenchmark call from its own file (see multipair.go for the
// multi-pair family), never an edit to run.go or options.go dispatch.

// Benchmark identifies a registered workload by its canonical name.
type Benchmark string

// Kind classifies a benchmark for scale selection and grouping.
type Kind int

// Benchmark kinds.
const (
	KindPtPt Kind = iota
	KindCollective
	KindVector
	// KindOverlap marks the nonblocking-collective overlap benchmarks.
	KindOverlap
)

// Columns identifies the report-column set a benchmark fills.
type Columns int

// Column sets.
const (
	// ColumnsLatency reports Size, Avg(us), Min(us), Max(us).
	ColumnsLatency Columns = iota
	// ColumnsBandwidth reports Size, Bandwidth(MB/s).
	ColumnsBandwidth
	// ColumnsOverlap reports Size, Comm(us), Compute(us), Total(us),
	// Overlap(%).
	ColumnsOverlap
	// ColumnsMessageRate reports Size, MB/s, Messages/s.
	ColumnsMessageRate
)

// BenchmarkSpec describes one registered workload. Name, Kind, Group and
// Body are required; everything else has a permissive zero value.
type BenchmarkSpec struct {
	// Name is the canonical benchmark name (lowercase, '_' separators).
	Name Benchmark
	// Aliases are accepted alternative spellings for ParseBenchmark.
	Aliases []string
	// Kind classifies the workload (point-to-point, collective, ...).
	Kind Kind
	// Group labels the benchmark in listings; benchmarks registered with
	// the same group are listed together, groups appear in first-
	// registration order.
	Group string
	// Summary is a one-line description for the CLIs' -list output.
	Summary string
	// MinRanks is the smallest rank count the workload runs on (0 = no
	// minimum beyond the runtime's own).
	MinRanks int
	// Modes restricts the language bindings the workload supports; nil
	// means every mode (C, Py, Pickle).
	Modes []Mode
	// Columns selects the report-column set.
	Columns Columns
	// Reduces marks workloads that apply a reduction operator (their
	// default element type is float32 rather than bytes).
	Reduces bool
	// Algo names the runtime collective whose algorithm registry the
	// workload exercises, if it has selectable algorithms ("" = none).
	Algo mpi.Collective
	// FixedSizes, when non-empty, replaces the message-size axis entirely
	// (barrier runs once at size 0).
	FixedSizes []int
	// Buffers returns the (sendFactor, recvFactor) buffer scaling on p
	// ranks (gather receives p blocks, alltoall moves p both ways, ...);
	// nil means (1, 1).
	Buffers func(p int) (sendFactor, recvFactor int)
	// Validate rejects option combinations the workload cannot run; it is
	// called after defaults are applied and the generic checks passed.
	Validate func(o Options) error
	// Body runs the workload for one message size on one rank and returns
	// rank 0's aggregated row (other ranks return a zero row, exactly as
	// Bench.ReduceRow does). Required.
	Body func(b *Bench) (stats.Row, error)
}

// SupportsMode reports whether the workload runs under the given binding.
func (s *BenchmarkSpec) SupportsMode(m Mode) bool {
	if len(s.Modes) == 0 {
		return true
	}
	for _, have := range s.Modes {
		if have == m {
			return true
		}
	}
	return false
}

// modeNames renders the supported-mode list for error messages.
func (s *BenchmarkSpec) modeNames() string {
	modes := s.Modes
	if len(modes) == 0 {
		modes = []Mode{ModeC, ModePy, ModePickle}
	}
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.String()
	}
	return strings.Join(names, ", ")
}

// InventoryConfig returns the smallest (ranks, mode, faults) configuration
// the spec supports, for inventory-style drivers that run every registered
// benchmark once (the table2 experiment, BenchmarkTable2AllBenchmarks):
// 2 ranks for point-to-point workloads and 4 otherwise, raised to the
// spec's minimum, in Py mode where the spec supports it and C otherwise.
// The fault-scenario family refuses to run without a plan, so it gets the
// light noise plan its validation error suggests.
func (s *BenchmarkSpec) InventoryConfig() (ranks int, mode Mode, faults string) {
	ranks = 2
	if s.Kind != KindPtPt {
		ranks = 4
	}
	if ranks < s.MinRanks {
		ranks = s.MinRanks
	}
	mode = ModePy
	if !s.SupportsMode(mode) {
		mode = ModeC
	}
	if s.Group == groupFault {
		faults = "noise:sigma=5us"
	}
	return ranks, mode, faults
}

// buffers applies the spec's buffer scaling, defaulting to (1, 1).
func (s *BenchmarkSpec) buffers(p int) (int, int) {
	if s.Buffers == nil {
		return 1, 1
	}
	return s.Buffers(p)
}

// benchRegistry holds every registered workload: specs in registration
// order plus a name index covering canonical names and aliases. It is
// populated by init functions (and, for external workloads, by
// RegisterBenchmark calls before the first Run) and read-only afterwards.
var benchRegistry = struct {
	specs  []*BenchmarkSpec
	byName map[string]*BenchmarkSpec
}{byName: map[string]*BenchmarkSpec{}}

// normalizeBenchName lower-cases and unifies separators so "Reduce-Scatter"
// and "reduce_scatter" compare equal.
func normalizeBenchName(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.ReplaceAll(s, "-", "_")
	s = strings.ReplaceAll(s, " ", "_")
	return s
}

// RegisterBenchmark adds a workload to the registry. It panics on an
// invalid spec, a duplicate name, or an alias colliding with any registered
// name or alias: registration mistakes are programming errors and must
// fail loudly at init time, not surface as misrouted runs later. The spec
// is validated completely before the registry is touched, so a panicking
// registration leaves no partial state behind.
func RegisterBenchmark(spec BenchmarkSpec) {
	if spec.Name == "" {
		panic("core: RegisterBenchmark: spec has no name")
	}
	if string(spec.Name) != normalizeBenchName(string(spec.Name)) {
		panic(fmt.Sprintf("core: RegisterBenchmark: name %q is not canonical (want %q)",
			spec.Name, normalizeBenchName(string(spec.Name))))
	}
	if spec.Body == nil {
		panic(fmt.Sprintf("core: RegisterBenchmark: %s has no body", spec.Name))
	}
	if spec.Group == "" {
		panic(fmt.Sprintf("core: RegisterBenchmark: %s has no group", spec.Name))
	}
	names := append([]string{string(spec.Name)}, spec.Aliases...)
	seen := map[string]bool{}
	for i, raw := range names {
		n := normalizeBenchName(raw)
		if n == "" {
			panic(fmt.Sprintf("core: RegisterBenchmark: %s has an empty alias", spec.Name))
		}
		if seen[n] {
			panic(fmt.Sprintf("core: RegisterBenchmark: %s repeats name %q", spec.Name, n))
		}
		seen[n] = true
		if have, ok := benchRegistry.byName[n]; ok {
			what := "name"
			if i > 0 {
				what = "alias"
			}
			panic(fmt.Sprintf("core: RegisterBenchmark: %s %q of %s collides with registered benchmark %s",
				what, n, spec.Name, have.Name))
		}
	}
	s := new(BenchmarkSpec)
	*s = spec
	benchRegistry.specs = append(benchRegistry.specs, s)
	for n := range seen {
		benchRegistry.byName[n] = s
	}
}

// LookupBenchmark resolves a benchmark name (or alias) to its spec.
func LookupBenchmark(name string) (*BenchmarkSpec, error) {
	if s, ok := benchRegistry.byName[normalizeBenchName(name)]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("core: unknown benchmark %q (have %s)", name, benchNames())
}

// Benchmarks lists every registered benchmark in registration order
// (paper Table II order for the built-in set, later registrations after).
func Benchmarks() []Benchmark {
	out := make([]Benchmark, len(benchRegistry.specs))
	for i, s := range benchRegistry.specs {
		out[i] = s.Name
	}
	return out
}

// ParseBenchmark resolves a benchmark by name or alias, returning the
// canonical name.
func ParseBenchmark(s string) (Benchmark, error) {
	spec, err := LookupBenchmark(s)
	if err != nil {
		return "", err
	}
	return spec.Name, nil
}

// benchNames renders the sorted canonical names for error messages.
func benchNames() string {
	names := make([]string, 0, len(benchRegistry.specs))
	for _, s := range benchRegistry.specs {
		names = append(names, string(s.Name))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// spec returns the benchmark's registry entry, or nil if unregistered.
func (b Benchmark) spec() *BenchmarkSpec {
	return benchRegistry.byName[normalizeBenchName(string(b))]
}

// Kind returns the benchmark's class (KindCollective for unregistered
// names, matching the historical default).
func (b Benchmark) Kind() Kind {
	if s := b.spec(); s != nil {
		return s.Kind
	}
	return KindCollective
}

// Columns returns the benchmark's report-column set.
func (b Benchmark) Columns() Columns {
	if s := b.spec(); s != nil {
		return s.Columns
	}
	return ColumnsLatency
}

// Collective returns the runtime collective whose algorithm registry the
// benchmark exercises, if it has selectable algorithms.
func (b Benchmark) Collective() (mpi.Collective, bool) {
	if s := b.spec(); s != nil && s.Algo != "" {
		return s.Algo, true
	}
	return "", false
}

// reduces reports whether the benchmark applies a reduction operator.
func (b Benchmark) reduces() bool {
	s := b.spec()
	return s != nil && s.Reduces
}

// DescribeBenchmarks renders the registry as a grouped human-readable
// listing, used by the CLIs' -list output. Groups appear in registration
// order; aliases are listed at the end.
func DescribeBenchmarks() string {
	var sb strings.Builder
	var groups []string
	byGroup := map[string][]*BenchmarkSpec{}
	for _, s := range benchRegistry.specs {
		if _, ok := byGroup[s.Group]; !ok {
			groups = append(groups, s.Group)
		}
		byGroup[s.Group] = append(byGroup[s.Group], s)
	}
	for _, g := range groups {
		fmt.Fprintf(&sb, "%s:\n", g)
		for _, s := range byGroup[g] {
			fmt.Fprintf(&sb, "  %-16s %s\n", s.Name, s.Summary)
		}
	}
	var aliases []string
	for n, s := range benchRegistry.byName {
		if n != string(s.Name) {
			aliases = append(aliases, n+"="+string(s.Name))
		}
	}
	sort.Strings(aliases)
	if len(aliases) > 0 {
		fmt.Fprintf(&sb, "aliases: %s\n", strings.Join(aliases, ", "))
	}
	return sb.String()
}

// Bench is the per-rank harness handle a benchmark body runs against: it
// wraps the mode adapter (C / Py / Pickle dispatch, sized buffers), the
// current message size and loop counts, and the timing and aggregation
// helpers every body needs. The harness contract for a body:
//
//  1. The body is called once per message size on every rank, after the
//     buffers are sized, a barrier has isolated it from the previous size,
//     and every rank's virtual clock is reset to zero.
//  2. Move messages with Send/Recv/Exchange (mode-dispatched), Collective/
//     ICollective (named collectives), or AckSend/AckRecv (the raw 4-byte
//     window acknowledgements of the bandwidth tests).
//  3. Time with Wtime (the rank's virtual clock, microseconds); inject
//     virtual compute with Compute.
//  4. Aggregate with ReduceRow: it reduces the local latency across ranks
//     (average of averages, global min/max) and returns the filled row on
//     rank 0 and a zero row elsewhere. Bodies must return exactly that
//     shape — the run loop appends rank 0's row to the series.
type Bench struct {
	opts   *Options
	o      *ops
	size   int
	iters  int
	warmup int
	// proc short-circuits the o.c.Proc() chain for Wtime: the benchmark
	// loop samples the clock twice per iteration on every rank, and at huge
	// world counts the two extra pointer hops are a measurable slice of the
	// sweep.
	proc *mpi.Proc
}

// Options returns the run's effective (defaulted) options.
func (b *Bench) Options() Options { return *b.opts }

// Comm returns the rank's world communicator.
func (b *Bench) Comm() *mpi.Comm { return b.o.c }

// Size returns the current message size in bytes.
func (b *Bench) Size() int { return b.size }

// Iters returns the timed iteration count for the current size.
func (b *Bench) Iters() int { return b.iters }

// Warmup returns the warm-up iteration count for the current size.
func (b *Bench) Warmup() int { return b.warmup }

// Wtime returns the rank's virtual clock.
func (b *Bench) Wtime() vtime.Micros { return b.proc.Wtime() }

// Barrier synchronizes through the layer under test.
func (b *Bench) Barrier() error { return b.o.barrier() }

// Send moves one message of the current size to dst, through the mode
// under test.
func (b *Bench) Send(dst, tag int) error { return b.o.send(dst, tag) }

// Recv receives one message of the current size from src, through the
// mode under test.
func (b *Bench) Recv(src, tag int) error { return b.o.recv(src, tag) }

// Exchange performs the bidirectional transfer of the bibw test with peer.
func (b *Bench) Exchange(peer int) error { return b.o.exchange(peer) }

// AckSend sends the 4-byte window acknowledgement of the bandwidth tests;
// it always uses the raw runtime, like OMB's C ack.
func (b *Bench) AckSend(dst int) error { return b.o.ackSend(dst) }

// AckRecv receives the 4-byte window acknowledgement.
func (b *Bench) AckRecv(src int) error { return b.o.ackRecv(src) }

// Collective runs the named blocking collective for the current size.
func (b *Bench) Collective(name Benchmark) error { return b.o.collective(name) }

// ICollective posts the named nonblocking collective for the current size
// and returns its request (C mode only).
func (b *Bench) ICollective(name Benchmark) (*mpi.Request, error) { return b.o.icollective(name) }

// Compute injects d microseconds of virtual computation.
func (b *Bench) Compute(d vtime.Micros) { b.o.compute(d) }

// ReduceRow aggregates the local latency across ranks (average of
// averages, global min and max) into the row for the current size; mbps
// fills the bandwidth column from rank 0. It returns the filled row on
// rank 0 and a zero row on every other rank.
//
// Aggregation runs on the raw runtime (outside the timed section, like
// OMB's MPI_Reduce of elapsed times) as one 3-element vector reduce with
// the fused min/sum/max operator: one message round instead of three
// reduces. Sizes are clock-isolated (see Run), so without an
// active fault plan the aggregation protocol cannot affect any reported
// latency (TestTrafficAfterRowLeavesRowsUnchanged). Under a plan the
// aggregation's collective and messages advance the per-rank draw
// counters, so the protocol shifts later sizes' draws.
func (b *Bench) ReduceRow(localLat, mbps float64) (stats.Row, error) {
	c := b.o.c
	self, out := b.o.rowBuf[:24], b.o.rowBuf[24:48]
	bits := math.Float64bits(localLat)
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(self[8*i:], bits)
	}
	if err := c.Reduce(self, out, mpi.Float64, mpi.OpMinSumMax, 0); err != nil {
		return stats.Row{}, err
	}
	if c.Rank() != 0 {
		return stats.Row{}, nil
	}
	vals := mpi.DecodeFloat64s(out)
	return stats.Row{
		Size:  b.size,
		AvgUs: vals[1] / float64(c.Size()),
		MinUs: vals[0],
		MaxUs: vals[2],
		MBps:  mbps,
	}, nil
}
