package core

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/vtime"
)

// The multi-pair point-to-point family (OMB's osu_mbw_mr): the first p
// ranks each stream windows of messages to a dedicated partner in the
// second p ranks, all pairs concurrently, and the suite reports the
// aggregate bandwidth across pairs — mbw_mr adds the message-rate column
// (messages per second), multi_bw reports bandwidth only.
//
// This file is the registry's existence proof: a whole workload family —
// two benchmarks, their -pairs option validation, their report columns —
// registers itself here without touching the run loop, the option
// validator, or either CLI. It runs with folding on or off and in
// -parallel sweeps like every other registered workload.

// The multi-pair benchmarks.
const (
	// MultiBWMR is OMB's osu_mbw_mr: aggregate multi-pair bandwidth plus
	// message rate.
	MultiBWMR Benchmark = "mbw_mr"
	// MultiBandwidth reports the aggregate multi-pair bandwidth only.
	MultiBandwidth Benchmark = "multi_bw"
)

// groupMultiPair labels the family in -list output.
const groupMultiPair = "multi-pair point-to-point"

// mbwTag is the message tag of the multi-pair streams (the single-pair
// tests use tags 1-4, the window ack uses ackTag).
const mbwTag = 5

func init() {
	RegisterBenchmark(BenchmarkSpec{
		Name: MultiBWMR, Aliases: []string{"osu_mbw_mr", "message_rate"},
		Kind: KindPtPt, Group: groupMultiPair,
		Summary:  "aggregate multi-pair bandwidth and message rate (osu_mbw_mr, -pairs)",
		MinRanks: 2, Modes: cAndPy, Columns: ColumnsMessageRate,
		Validate: validatePairs,
		Body:     func(b *Bench) (stats.Row, error) { return runMultiPair(b, true) },
	})
	RegisterBenchmark(BenchmarkSpec{
		Name: MultiBandwidth, Aliases: []string{"osu_multi_bw"},
		Kind: KindPtPt, Group: groupMultiPair,
		Summary:  "aggregate multi-pair bandwidth (-pairs)",
		MinRanks: 2, Modes: cAndPy, Columns: ColumnsBandwidth,
		Validate: validatePairs,
		Body:     func(b *Bench) (stats.Row, error) { return runMultiPair(b, false) },
	})
}

// pairCount resolves the effective pair count: -pairs if set, otherwise
// half the ranks (the OSU default; with an odd rank count the last rank
// sits the streams out but still joins the barrier and the aggregation).
func pairCount(o Options, ranks int) int {
	if o.Pairs > 0 {
		return o.Pairs
	}
	return ranks / 2
}

// validatePairs rejects pair counts the rank count cannot host.
func validatePairs(o Options) error {
	if o.Pairs > 0 && 2*o.Pairs > o.Ranks {
		return fmt.Errorf("core: %s with %d pairs needs at least %d ranks, got %d",
			o.Benchmark, o.Pairs, 2*o.Pairs, o.Ranks)
	}
	return nil
}

// runMultiPair is the osu_mbw_mr loop: sender rank i streams a window of
// messages to receiver rank i+pairs, the receiver acknowledges the window
// with a 4-byte message, and all pairs run concurrently. The aggregate
// bandwidth is pairs*size*window*iters over rank 0's elapsed time, exactly
// as OSU computes it from the lead rank's clock; the message rate divides
// that through by the message size.
func runMultiPair(b *Bench, msgRate bool) (stats.Row, error) {
	c := b.Comm()
	size, iters, warmup := b.Size(), b.Iters(), b.Warmup()
	window := b.Options().Window
	pairs := pairCount(b.Options(), c.Size())
	rank := c.Rank()
	sender := rank < pairs
	receiver := rank >= pairs && rank < 2*pairs
	var peer int
	if sender {
		peer = rank + pairs
	} else if receiver {
		peer = rank - pairs
	}
	if err := b.Barrier(); err != nil {
		return stats.Row{}, err
	}
	var start vtime.Micros
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			start = b.Wtime()
		}
		switch {
		case sender:
			for w := 0; w < window; w++ {
				if err := b.Send(peer, mbwTag); err != nil {
					return stats.Row{}, err
				}
			}
			if err := b.AckRecv(peer); err != nil {
				return stats.Row{}, err
			}
		case receiver:
			for w := 0; w < window; w++ {
				if err := b.Recv(peer, mbwTag); err != nil {
					return stats.Row{}, err
				}
			}
			if err := b.AckSend(peer); err != nil {
				return stats.Row{}, err
			}
		}
	}
	elapsed := float64(b.Wtime() - start) // us; ~0 on a rank outside the pairs
	var mbps float64
	if rank == 0 && elapsed > 0 {
		mbps = float64(pairs*size*window*iters) / elapsed
	}
	row, err := b.ReduceRow(elapsed/float64(iters), mbps)
	if err != nil || c.Rank() != 0 {
		return row, err
	}
	if msgRate && size > 0 {
		row.MsgRate = mbps * 1e6 / float64(size)
	}
	return row, nil
}
