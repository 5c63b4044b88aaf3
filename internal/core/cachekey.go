package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
)

// CacheKey returns the content address of the simulation these options
// describe: a hex SHA-256 over the withDefaults-canonicalized fields, in a
// fixed order with sorted map keys. Determinism is the engine's contract —
// identical options produce bit-identical reports — so the key is a true
// content address: the tuning service's result cache and singleflight
// deduplication both key on it.
//
// Canonicalization means spelling cannot split the cache: benchmark
// aliases resolve through the registry, forced algorithm names resolve
// through the runtime registry ("rd" and "recursive_doubling" share a
// key), and defaulted fields hash at their effective values.
//
// Two kinds of fields are deliberately excluded:
//
//   - Execution knobs that cannot change a reported number: NoFold
//     selects *how* the simulation runs, and the parity suites pin its
//     results bit-identical. Hashing it would split the cache across
//     entries holding the same bytes.
//   - The Profiler hook, which records binding-layer phases without
//     affecting any reported number (the serving layer rejects it anyway:
//     a hook cannot travel over JSON).
func (o Options) CacheKey() string {
	o = o.withDefaults()
	h := sha256.New()
	writeField := func(name string, v any) {
		fmt.Fprintf(h, "%s=%v\n", name, v)
	}
	writeField("benchmark", o.Benchmark)
	writeField("cluster", o.Cluster)
	writeField("impl", o.Impl)
	writeField("mode", o.Mode)
	writeField("buffer", o.Buffer)
	writeField("gpu", o.UseGPU)
	writeField("ranks", o.Ranks)
	writeField("ppn", o.PPN)
	writeField("min_size", o.MinSize)
	writeField("max_size", o.MaxSize)
	writeField("iters", o.Iters)
	writeField("warmup", o.Warmup)
	writeField("large_threshold", o.LargeThreshold)
	writeField("large_iters", o.LargeIters)
	writeField("large_warmup", o.LargeWarmup)
	writeField("window", o.Window)
	writeField("pairs", o.Pairs)
	writeField("timing_only", o.TimingOnly)
	writeField("sizes", o.Sizes)
	writeField("dtype", int(o.DType))
	writeField("tuning.bcast_scatter_ring_min", o.Tuning.BcastScatterRingMin)
	writeField("tuning.allreduce_rabenseifner_min", o.Tuning.AllreduceRabenseifnerMin)
	writeField("tuning.allgather_rd_max_total", o.Tuning.AllgatherRDMaxTotal)
	writeField("tuning.allgather_bruck_max_total", o.Tuning.AllgatherBruckMaxTotal)
	writeField("tuning.alltoall_bruck_max_block", o.Tuning.AlltoallBruckMaxBlock)
	writeField("faults", o.Faults)
	writeAlgorithms(h, o)
	return hex.EncodeToString(h.Sum(nil))
}

// writeAlgorithms hashes the forced-algorithm map with canonical collective
// and algorithm names in sorted key order. Options that fail to
// canonicalize (unknown collective or algorithm — validate rejects them
// before any run) hash the raw map instead, still sorted, so even invalid
// options get a stable key.
func writeAlgorithms(h io.Writer, o Options) {
	type pair struct{ coll, name string }
	var pairs []pair
	if m, err := o.mpiAlgorithms(); err == nil {
		for coll, name := range m {
			pairs = append(pairs, pair{string(coll), name})
		}
	} else {
		for coll, name := range o.Algorithms {
			pairs = append(pairs, pair{coll, name})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].coll < pairs[j].coll })
	for _, p := range pairs {
		fmt.Fprintf(h, "algorithm.%s=%s\n", p.coll, p.name)
	}
}
