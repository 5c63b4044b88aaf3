// Custom benchmark: register a workload the suite has never heard of and
// run it like any built-in — the point of the open benchmark registry.
//
// The workload is a "ring relay": a token of the current message size hops
// rank 0 → 1 → ... → p-1 → 0, and the reported latency is the per-hop
// time. Registering it takes one RegisterBenchmark call; the run loop,
// option validation, size sweep, report columns, -parallel sweeps and
// the CLIs pick it up from the spec with no edits anywhere else.
// Run with:
//
//	go run ./examples/custom_benchmark
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vtime"
)

func init() {
	core.RegisterBenchmark(core.BenchmarkSpec{
		Name:     "ring_relay",
		Aliases:  []string{"relay"},
		Kind:     core.KindPtPt,
		Group:    "examples",
		Summary:  "token relay around the full rank ring, per-hop latency",
		MinRanks: 2,
		Modes:    []core.Mode{core.ModeC},
		Body:     runRingRelay,
	})
}

// runRingRelay circulates one token around the ring and reports the mean
// per-hop latency, using only the exported Bench harness contract.
func runRingRelay(b *core.Bench) (stats.Row, error) {
	c := b.Comm()
	p, rank := c.Size(), c.Rank()
	next, prev := (rank+1)%p, (rank+p-1)%p
	iters, warmup := b.Iters(), b.Warmup()
	if err := b.Barrier(); err != nil {
		return stats.Row{}, err
	}
	var start vtime.Micros
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			start = b.Wtime()
		}
		if rank == 0 {
			if err := b.Send(next, 1); err != nil {
				return stats.Row{}, err
			}
			if err := b.Recv(prev, 1); err != nil {
				return stats.Row{}, err
			}
		} else {
			if err := b.Recv(prev, 1); err != nil {
				return stats.Row{}, err
			}
			if err := b.Send(next, 1); err != nil {
				return stats.Row{}, err
			}
		}
	}
	perHop := float64(b.Wtime()-start) / float64(iters) / float64(p)
	return b.ReduceRow(perHop, 0)
}

func main() {
	rep, err := core.Run(core.Options{
		Benchmark: "ring_relay",
		Cluster:   "frontera",
		Ranks:     8,
		PPN:       4,
		MinSize:   8,
		MaxSize:   64 * 1024,
		Iters:     20,
		Warmup:    2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ring_relay: a workload the suite never shipped, run through the registry")
	fmt.Print(rep.Text())

	// The registered workload is a first-class citizen: it parses by
	// alias and shows up in the -list metadata like any built-in.
	if _, err := core.ParseBenchmark("relay"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nregistry listing now includes:")
	fmt.Printf("  ring_relay (alias \"relay\"), group %q\n", "examples")
}
