package mpi

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the collective-algorithm registry: every collective
// algorithm the runtime ships (binomial tree, scatter+ring broadcast,
// recursive doubling, Rabenseifner, Bruck, pairwise, ring, recursive
// halving) is a named, first-class Algorithm entry, and selection is a
// Policy over the registry -- threshold-driven defaults (Tuning, the
// MV2_* knob analogue) plus per-collective forced overrides (the
// MV2_*_ALGORITHM knob analogue). The coll_*.go files register their
// implementations at init time; dispatch sites build a Selection and ask
// the world's policy which entry runs.

// Collective identifies a collective operation with selectable algorithms.
type Collective string

// Collectives with more than one registered algorithm.
const (
	CollBcast         Collective = "bcast"
	CollAllreduce     Collective = "allreduce"
	CollAllgather     Collective = "allgather"
	CollAlltoall      Collective = "alltoall"
	CollReduceScatter Collective = "reduce_scatter"
)

// collectiveOrder fixes the listing order (paper Table II order).
var collectiveOrder = []Collective{
	CollBcast, CollAllreduce, CollAllgather, CollAlltoall, CollReduceScatter,
}

// ParseCollective resolves a collective by name ("reduce-scatter" and
// "reducescatter" are accepted for reduce_scatter).
func ParseCollective(s string) (Collective, error) {
	switch normalizeName(s) {
	case "bcast", "broadcast":
		return CollBcast, nil
	case "allreduce":
		return CollAllreduce, nil
	case "allgather":
		return CollAllgather, nil
	case "alltoall":
		return CollAlltoall, nil
	case "reduce_scatter", "reducescatter":
		return CollReduceScatter, nil
	}
	return "", fmt.Errorf("mpi: unknown collective %q (have %s)", s, collectiveNames())
}

// Collectives returns the collectives with registered algorithms.
func Collectives() []Collective {
	out := make([]Collective, len(collectiveOrder))
	copy(out, collectiveOrder)
	return out
}

func collectiveNames() string {
	names := make([]string, 0, len(collectiveOrder))
	for _, c := range collectiveOrder {
		names = append(names, string(c))
	}
	return strings.Join(names, ", ")
}

// Selection is the context of one algorithm-selection decision: the shape
// of the communicator and of the message, plus the effective thresholds.
type Selection struct {
	// CommSize is the number of ranks in the communicator.
	CommSize int
	// Bytes is the selection size in bytes: the full vector for Bcast and
	// Allreduce, the per-rank block for Allgather, the per-destination
	// block for Alltoall, the total payload for ReduceScatter.
	Bytes int
	// Elems is the element count of the reduction vector (reductions only).
	Elems int
	// Tuning holds the effective thresholds consulted by the predicates.
	Tuning Tuning
}

// Total is the aggregate payload CommSize*Bytes, the quantity the
// allgather thresholds bound.
func (s Selection) Total() int { return s.CommSize * s.Bytes }

// NewSelection builds the Selection one dispatch of coll consults: bytes
// is the selection size documented on Selection.Bytes, and the reductions
// also count it in elements of dt (the other collectives ignore dt). The
// dispatch sites and core's Options.SelectedAlgorithm both build their
// Selection here, so a prediction of the algorithm a run selects cannot
// drift from the one the runtime dispatches.
func NewSelection(coll Collective, commSize, bytes int, dt DType) Selection {
	switch coll {
	case CollAllreduce, CollReduceScatter:
		return Selection{CommSize: commSize, Bytes: bytes, Elems: bytes / dt.Size()}
	}
	return Selection{CommSize: commSize, Bytes: bytes}
}

// collCall carries the operands of one collective invocation to an
// algorithm implementation; unused fields stay zero.
type collCall struct {
	sbuf, rbuf []byte
	n          int
	counts     []int
	total      int
	dt         DType
	op         Op
	root       int
}

// Algorithm describes one registered collective algorithm.
type Algorithm struct {
	// Name is the canonical algorithm name, e.g. "recursive_doubling".
	Name string
	// Collective is the operation the algorithm implements.
	Collective Collective
	// Summary is a one-line description for CLI listings.
	Summary string
	// Applicable is the default-policy predicate: it reports whether the
	// shipped tuning tables would pick this algorithm for sel. Entries are
	// tried in registration order; the last entry of each collective is a
	// catch-all.
	Applicable func(sel Selection) bool
	// Feasible is the hard correctness constraint, enforced even when the
	// algorithm is forced (e.g. recursive doubling needs a power-of-two
	// communicator); nil means always runnable.
	Feasible func(sel Selection) bool
	// build compiles the implementation into a step schedule (see
	// collsched.go); blocking callers drive it to completion in place,
	// nonblocking callers return it wrapped in a Request.
	build func(c *Comm, call collCall, s *collSched) error
}

// FeasibleFor reports whether the algorithm can run correctly for sel.
func (a *Algorithm) FeasibleFor(sel Selection) bool {
	return a.Feasible == nil || a.Feasible(sel)
}

// registry holds the algorithms of each collective in selection-priority
// order. It is populated by the coll_*.go init functions and immutable
// afterwards, so lookups need no locking.
var algorithmRegistry = map[Collective][]*Algorithm{}

// registerAlgorithm adds an entry; called from init functions only.
func registerAlgorithm(a Algorithm) {
	if a.Name != normalizeName(a.Name) {
		panic("mpi: algorithm name " + a.Name + " is not canonical")
	}
	for _, have := range algorithmRegistry[a.Collective] {
		if have.Name == a.Name {
			panic("mpi: duplicate algorithm " + a.Name + " for " + string(a.Collective))
		}
	}
	algorithmRegistry[a.Collective] = append(algorithmRegistry[a.Collective], &a)
}

// Algorithms returns the registered algorithms of a collective in
// selection-priority order.
func Algorithms(coll Collective) []*Algorithm {
	entries := algorithmRegistry[coll]
	out := make([]*Algorithm, len(entries))
	copy(out, entries)
	return out
}

// AlgorithmNames returns the canonical algorithm names of a collective.
func AlgorithmNames(coll Collective) []string {
	entries := algorithmRegistry[coll]
	out := make([]string, len(entries))
	for i, a := range entries {
		out[i] = a.Name
	}
	return out
}

// normalizeName lower-cases and unifies separators so "Recursive-Doubling"
// and "recursive_doubling" compare equal.
func normalizeName(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.ReplaceAll(s, "-", "_")
	s = strings.ReplaceAll(s, " ", "_")
	return s
}

// algorithmAliases maps accepted shorthands to canonical algorithm names.
var algorithmAliases = map[string]string{
	"rd":                "recursive_doubling",
	"recdoubling":       "recursive_doubling",
	"doubling":          "recursive_doubling",
	"rh":                "recursive_halving",
	"halving":           "recursive_halving",
	"raben":             "rabenseifner",
	"scatter_allgather": "scatter_ring",
	"tree":              "binomial",
	"pair":              "pairwise",
}

// CanonicalAlgorithm resolves name (or an accepted alias) to the canonical
// name of a registered algorithm of coll.
func CanonicalAlgorithm(coll Collective, name string) (string, error) {
	n := normalizeName(name)
	if canon, ok := algorithmAliases[n]; ok {
		n = canon
	}
	for _, a := range algorithmRegistry[coll] {
		if a.Name == n {
			return n, nil
		}
	}
	return "", fmt.Errorf("mpi: collective %s has no algorithm %q (have %s)",
		coll, name, strings.Join(AlgorithmNames(coll), ", "))
}

// LookupAlgorithm returns the registered algorithm of coll with the given
// (possibly aliased) name.
func LookupAlgorithm(coll Collective, name string) (*Algorithm, error) {
	canon, err := CanonicalAlgorithm(coll, name)
	if err != nil {
		return nil, err
	}
	for _, a := range algorithmRegistry[coll] {
		if a.Name == canon {
			return a, nil
		}
	}
	panic("unreachable: canonical name not registered")
}

// Policy is an algorithm-selection policy over the registry: Tuning
// supplies the thresholds the Applicable predicates consult, and Forced
// pins a named algorithm per collective, bypassing the predicates the way
// MVAPICH2's MV2_*_ALGORITHM environment knobs bypass its tuning tables.
type Policy struct {
	Tuning Tuning
	Forced map[Collective]string
	// defaulted marks Tuning as already filled by withDefaults, letting
	// Select skip re-defaulting on the per-collective-call hot path;
	// NewWorld sets it, bare Policy literals (tests, introspection) leave
	// it false and pay the cheap fill on each Select.
	defaulted bool
}

// Select returns the algorithm the policy picks for one invocation.
// sel.Tuning is overwritten with the policy's effective thresholds.
func (p Policy) Select(coll Collective, sel Selection) (*Algorithm, error) {
	sel.Tuning = p.Tuning
	if !p.defaulted {
		sel.Tuning = p.Tuning.withDefaults()
	}
	if name := p.Forced[coll]; name != "" {
		a, err := LookupAlgorithm(coll, name)
		if err != nil {
			return nil, err
		}
		if !a.FeasibleFor(sel) {
			return nil, fmt.Errorf("mpi: forced %s algorithm %q is infeasible for %d ranks",
				coll, a.Name, sel.CommSize)
		}
		return a, nil
	}
	for _, a := range algorithmRegistry[coll] {
		if a.FeasibleFor(sel) && a.Applicable(sel) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("mpi: no algorithm registered for collective %s", coll)
}

// DescribeRegistry renders the registry as a human-readable listing, used
// by the CLIs' -algorithm list output.
func DescribeRegistry() string {
	var sb strings.Builder
	for _, coll := range collectiveOrder {
		fmt.Fprintf(&sb, "%s:\n", coll)
		for _, a := range Algorithms(coll) {
			fmt.Fprintf(&sb, "  %-20s %s\n", a.Name, a.Summary)
		}
	}
	aliases := make([]string, 0, len(algorithmAliases))
	for from, to := range algorithmAliases {
		aliases = append(aliases, from+"="+to)
	}
	sort.Strings(aliases)
	fmt.Fprintf(&sb, "aliases: %s\n", strings.Join(aliases, ", "))
	return sb.String()
}

// algorithm asks the communicator's world policy for the algorithm of one
// invocation.
func (c *Comm) algorithm(coll Collective, sel Selection) (*Algorithm, error) {
	return c.proc.world.policy.Select(coll, sel)
}
