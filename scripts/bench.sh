#!/usr/bin/env bash
# Runs the engine benchmark suite and emits a JSON results file.
#
#   scripts/bench.sh [output.json] [micro-benchtime] [largeworld-benchtime]
#
# Defaults: BENCH.json, 2s for the internal/mpi micro-benchmarks, 10x for
# the 256-rank large-world and the 1024- to 262144-rank huge-world
# benchmarks.
# CI's smoke job passes 1x 1x so the suite runs once and the JSON artifact
# is uploaded without burning minutes; BENCH_PR*.json files committed to
# the repo are generated with the defaults and carry the pre-change
# baseline alongside.
#
# The large-world benchmark is one 256-rank row; the huge-world rows scale
# the same event loop to 262144 ranks.
#
# The multi-pair rows (PR 5) run the registry-registered mbw_mr benchmark
# at a sparse (16x1) and a folded (63x7) placement and carry the aggregate
# message rate as msg_rate_per_sec — the perf baseline of the multi-pair
# point-to-point family.
#
# The huge-world family (PR 6) runs at 1024 to 262144 ranks with
# symmetry folding on, plus 1024/4096 fold-off rows; the JSON carries
# fold_speedup_huge_world, the 4096-rank fold-off/fold-on wall-clock
# ratio. The 65536- and 262144-rank rows are the scaling headline and are
# reported honestly whatever they measure.
#
# The fault layer (PR 7) must cost nothing when no plan is given: the JSON
# carries fault_path_overhead, the fresh 4096-rank huge-world ns/op divided
# by the same row in the committed BENCH_PR6.json pre-fault baseline. A
# value near 1.0 means the no-plan hot path did not regress.
#
# The serve_load row (PR 9) load-tests the tuning service in process:
# BenchmarkServeLoad drives a concurrent mixed query stream (7/8 repeats of
# a hot configuration, 1/8 cold ones) through the full HTTP handler stack —
# cache, singleflight, admission control — and the JSON carries its
# sustained qps, p99 latency and cache-hit ratio.
#
# The autotune_search row (PR 10) runs a complete small ALNS search per
# iteration (BenchmarkAutotuneSearch) and carries the tuner's probe
# evaluations/sec, in-process cache-hit ratio, and objective trajectory
# endpoints (init_obj_us = shipped defaults, best_obj_us = after search).
#
# The huge-world benchmarks self-check the cross-world caches: a run that
# overflowed them fails (its ns/op would measure cache thrashing, not the
# engine), and this script aborts loudly with the benchmark output instead
# of recording the row.
set -euo pipefail

out="${1:-BENCH.json}"
micro_time="${2:-2s}"
large_time="${3:-10x}"

cd "$(dirname "$0")/.."

# Pre-fault-layer baseline for the no-plan overhead ratio.
base_ns=""
if [ -f BENCH_PR6.json ] && command -v jq >/dev/null 2>&1; then
	base_ns=$(jq -r '.benchmarks[] | select(.name=="EngineHugeWorld/4096") | .ns_per_op' BENCH_PR6.json)
fi

micro=$(go test ./internal/mpi -run '^$' \
	-bench 'BenchmarkEagerSendRecv|BenchmarkRendezvousExchange|BenchmarkAllreduce64|BenchmarkIallreduceOverlap' \
	-benchmem -benchtime="$micro_time" -count=1)
# The huge-world benchmarks b.Fatal on cross-world cache overflow; surface
# their output and abort instead of writing a JSON built from a bad run.
if ! large=$(go test . -run '^$' -bench 'BenchmarkEngineLargeWorld|BenchmarkEngineHugeWorld' \
	-benchmem -benchtime="$large_time" -count=1); then
	printf '%s\n' "$large" >&2
	echo "bench.sh: engine benchmarks failed (cache overflow or error above); no JSON written" >&2
	exit 1
fi
mbw=$(go test . -run '^$' -bench 'BenchmarkMultiPairMessageRate' \
	-benchtime="$large_time" -count=1)
srv=$(go test ./internal/serve -run '^$' -bench 'BenchmarkServeLoad' \
	-benchtime="$large_time" -count=1)
tn=$(go test ./internal/tune -run '^$' -bench 'BenchmarkAutotuneSearch' \
	-benchtime="$large_time" -count=1)

printf '%s\n%s\n%s\n%s\n%s\n' "$micro" "$large" "$mbw" "$srv" "$tn" | awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v base_ns="$base_ns" '
/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^BenchmarkMultiPairMessageRate/ {
	# "BenchmarkMultiPairMessageRate/16x1-4  10  984827 ns/op  24614239 msgs/s"
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^BenchmarkMultiPairMessageRate\//, "", name)
	mbwRows[m++] = sprintf("    {\"placement\": \"%s\", \"benchmark\": \"mbw_mr\", \"size\": 8, \"ns_per_op\": %s, \"msg_rate_per_sec\": %s}",
		name, $3, $5)
	next
}
/^BenchmarkServeLoad/ {
	# "BenchmarkServeLoad-4  200  18222350 ns/op  0.87 hit_ratio  124.0 p99_us  7315 qps"
	# (custom metrics are emitted unit-sorted; scan by unit, not position)
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") srv_ns = $i
		if ($(i+1) == "qps") srv_qps = $i
		if ($(i+1) == "p99_us") srv_p99 = $i
		if ($(i+1) == "hit_ratio") srv_hit = $i
	}
	next
}
/^BenchmarkAutotuneSearch/ {
	# "BenchmarkAutotuneSearch-4  2  18708013 ns/op  269.3 best_obj_us  3368 evals/s ..."
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") tn_ns = $i
		if ($(i+1) == "evals/s") tn_eps = $i
		if ($(i+1) == "hit_ratio") tn_hit = $i
		if ($(i+1) == "init_obj_us") tn_init = $i
		if ($(i+1) == "best_obj_us") tn_best = $i
	}
	next
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	rows[n++] = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
		name, $2, $3, $5, $7)
	ns[name] = $3
}
END {
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"go\": \"%s/%s\",\n", goos, goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	if (("EngineHugeWorldNoFold/4096" in ns) && ("EngineHugeWorld/4096" in ns))
		printf "  \"fold_speedup_huge_world\": %.2f,\n", ns["EngineHugeWorldNoFold/4096"] / ns["EngineHugeWorld/4096"]
	if (base_ns != "" && ("EngineHugeWorld/4096" in ns))
		printf "  \"fault_path_overhead\": %.3f,\n", ns["EngineHugeWorld/4096"] / base_ns
	if (srv_ns != "")
		printf "  \"serve_load\": {\"ns_per_op\": %s, \"qps\": %s, \"p99_us\": %s, \"cache_hit_ratio\": %s},\n", srv_ns, srv_qps, srv_p99, srv_hit
	if (tn_ns != "")
		printf "  \"autotune_search\": {\"ns_per_op\": %s, \"evals_per_sec\": %s, \"cache_hit_ratio\": %s, \"init_obj_us\": %s, \"best_obj_us\": %s},\n", tn_ns, tn_eps, tn_hit, tn_init, tn_best
	if (m > 0) {
		printf "  \"multi_pair_message_rate\": [\n"
		for (i = 0; i < m; i++)
			printf "%s%s\n", mbwRows[i], (i < m - 1 ? "," : "")
		printf "  ],\n"
	}
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++)
		printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
	printf "  ]\n}\n"
}' >"$out"

echo "wrote $out"
