package main

import (
	"fmt"
	"hash/fnv"
)

// workload is one set of inputs the benchmark runs. inputs runs in the
// parent and derives everything from the seed; run executes one
// repetition in a fresh child process, which receives only those inputs.
type workload struct {
	name   string
	why    string
	inputs func(seed uint64) input
	run    func(in *input, r *rec) error
}

// workloads in report order. Each repetition is a fixed amount of work,
// so repetitions of one run, and runs of different seeds, are comparable.
var workloads = []*workload{
	{
		name:   "paper",
		why:    "data-carrying experiments of ombrepro -all: mpi4py staging, pickle, mailbox copies and reduce kernels on the goroutine engine",
		inputs: paperInputs,
		run:    runPaper,
	},
	{
		name:   "huge_world",
		why:    "timing-only event-engine sweeps at 4Ki-16Ki ranks: event loop, fold stack and schedule compilation; mpi4py, pickle and serve bypassed",
		inputs: hugeWorldInputs,
		run:    runHugeWorld,
	},
	{
		name:   "serve_mix",
		why:    "7:1 cached-read/cold-write POST /sweep mix from a closed-loop client: hits cost HTTP, JSON and the cache; misses a goroutine-engine simulation",
		inputs: serveMixInputs,
		run:    runServeMix,
	},
	{
		name:   "autotune",
		why:    "ombtune search: ALNS/bandit loop and evaluator memo over hundreds of mid-size event-engine probes",
		inputs: autotuneInputs,
		run:    runAutotune,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// input is everything a child needs to run one repetition. Only the
// fields of the named workload are set.
type input struct {
	Workload    string       `json:"workload"`
	Experiments []string     `json:"experiments,omitempty"`
	Sweeps      []sweepInput `json:"sweeps,omitempty"`
	Requests    []string     `json:"requests,omitempty"`
	Tune        *tuneInput   `json:"tune,omitempty"`
}

// rng is SplitMix64. The benchmark carries its own generator rather than
// math/rand so that a seed names the same inputs under every Go release:
// the committed output digests depend on it.
type rng struct{ s uint64 }

// newRNG derives a workload's stream from the run seed, so two workloads
// run with one seed draw unrelated inputs.
func newRNG(seed uint64, workload string) *rng {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); the modulo bias is below 2^-50 for the
// small n used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
