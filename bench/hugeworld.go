package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/stats"
	"repro/internal/topology"
)

// sweepInput is one timing-only event-engine sweep of the huge_world
// workload.
type sweepInput struct {
	Benchmark      string `json:"benchmark"`
	Ranks          int    `json:"ranks"`
	PPN            int    `json:"ppn"`
	MinSize        int    `json:"min_size"`
	MaxSize        int    `json:"max_size"`
	Iters          int    `json:"iters"`
	Warmup         int    `json:"warmup"`
	LargeThreshold int    `json:"large_threshold"`
	LargeIters     int    `json:"large_iters"`
	LargeWarmup    int    `json:"large_warmup"`
}

func (s sweepInput) name() string { return fmt.Sprintf("%s-%d", s.Benchmark, s.Ranks) }

func (s sweepInput) options() core.Options {
	return core.Options{
		Benchmark: core.Benchmark(s.Benchmark), Mode: core.ModeC, TimingOnly: true,
		Ranks: s.Ranks, PPN: s.PPN, MinSize: s.MinSize, MaxSize: s.MaxSize,
		Iters: s.Iters, Warmup: s.Warmup,
		LargeThreshold: s.LargeThreshold, LargeIters: s.LargeIters, LargeWarmup: s.LargeWarmup,
	}
}

// hugeWorldSweeps mixes collectives that fold on every call (allreduce,
// barrier) with bcast, which falls back or trips the release valve on 6
// of its 10 calls, so a fold change moves part of the workload and leaves
// the rest as a control. Their costs (~1.25 s, 0.3 s and 0.9 s) are far
// enough apart that each repetition's median sweep is bcast-8192 and its
// slowest is allreduce-16384: p50_ms follows the fallback path and p99_ms
// the folded one. Smaller sweeps were left out: on one processor each
// absorbs the garbage collection of the big sweep before it, and their
// times crossed from repetition to repetition.
var hugeWorldSweeps = []struct {
	bench string
	ranks int
}{
	{"allreduce", 16384}, {"barrier", 16384}, {"bcast", 8192},
}

// hugeWorldInputs is the same for every seed. Each order, size window or
// rank count tried changes the sweeps' cost: a sweep reuses the slab pools
// of the one before it (barrier-16384 takes 0.8 s alone and 0.3 s after
// allreduce-16384), and the 32-128 KiB window makes allreduce ~15% dearer
// than 16-64 KiB. Seed-drawn variants would make runs of different seeds
// incomparable.
func hugeWorldInputs(uint64) input {
	in := input{Workload: "huge_world"}
	for _, s := range hugeWorldSweeps {
		in.Sweeps = append(in.Sweeps, sweepInput{
			Benchmark: s.bench, Ranks: s.ranks, PPN: s.ranks / 16,
			MinSize: 16 << 10, MaxSize: 64 << 10,
			Iters: 10, Warmup: 2, LargeThreshold: 8 << 10, LargeIters: 5, LargeWarmup: 1,
		})
	}
	return in
}

// runHugeWorld runs each sweep through core.RunContext, the path ombpy
// takes. An op is one sweep; its output is the report JSON. Traced
// repetitions then replay every sweep's collective loop on a world of
// their own to read the fold counters, which core.Run does not expose.
func runHugeWorld(in *input, r *rec) error {
	if err := r.start(); err != nil {
		return err
	}
	for _, sw := range in.Sweeps {
		begin := time.Now()
		rep, err := core.RunContext(context.Background(), sw.options())
		if err == nil && rep.Failure != nil {
			err = fmt.Errorf("%s: %s", rep.Failure.Code, rep.Failure.Message)
		}
		var out []byte
		if err == nil {
			out, err = json.Marshal(rep)
		}
		r.op("sweep", sw.name(), 1, begin, err)
		if err != nil {
			continue
		}
		r.output(sw.name(), out)
		if r.traced {
			r.set("core.run_s."+sw.name(), time.Since(begin).Seconds())
		}
	}
	r.stop()
	if !r.traced {
		return nil
	}
	var fold mpi.FoldStats
	var sched mpi.SchedFoldStats
	for _, sw := range in.Sweeps {
		f, s, err := foldProbe(sw)
		if err != nil {
			return fmt.Errorf("fold probe %s: %w", sw.name(), err)
		}
		fold.Folded += f.Folded
		fold.Fallback += f.Fallback
		fold.Released += f.Released
		sched.GatherHits += s.GatherHits
		sched.Fallbacks += s.Fallbacks
		sched.ClassesCompiled += s.ClassesCompiled
		sched.StructHits += s.StructHits
	}
	r.set("mpi.fold.folded", float64(fold.Folded))
	r.set("mpi.fold.fallback", float64(fold.Fallback))
	r.set("mpi.fold.released", float64(fold.Released))
	if calls := fold.Folded + fold.Fallback + fold.Released; calls > 0 {
		r.set("mpi.fold.hit_ratio", float64(fold.Folded)/float64(calls))
	}
	r.set("mpi.schedfold.gather_hits", float64(sched.GatherHits))
	r.set("mpi.schedfold.fallbacks", float64(sched.Fallbacks))
	r.set("mpi.schedfold.classes_compiled", float64(sched.ClassesCompiled))
	r.set("mpi.schedfold.struct_hits", float64(sched.StructHits))
	r.set("mpi.cache_overflows", float64(mpi.CacheOverflowCount()))
	return nil
}

// foldProbe replays one sweep's benchmark loop on a world the probe owns:
// per size a barrier, a clock reset and a barrier, then warm-up plus timed
// collective calls, then the row's min/sum/max reduce, as core.Run does.
func foldProbe(sw sweepInput) (mpi.FoldStats, mpi.SchedFoldStats, error) {
	cluster, err := topology.ByName(topology.Frontera.Name)
	if err != nil {
		return mpi.FoldStats{}, mpi.SchedFoldStats{}, err
	}
	place, err := topology.NewPlacement(cluster, sw.Ranks, sw.PPN, topology.Block, false)
	if err != nil {
		return mpi.FoldStats{}, mpi.SchedFoldStats{}, err
	}
	model, err := netmodel.New(cluster, netmodel.MVAPICH2)
	if err != nil {
		return mpi.FoldStats{}, mpi.SchedFoldStats{}, err
	}
	world, err := mpi.NewWorld(mpi.Config{Placement: place, Model: model, Engine: mpi.EngineEvent})
	if err != nil {
		return mpi.FoldStats{}, mpi.SchedFoldStats{}, err
	}
	defer world.Release()
	spec, err := core.LookupBenchmark(sw.Benchmark)
	if err != nil {
		return mpi.FoldStats{}, mpi.SchedFoldStats{}, err
	}
	sizes := stats.PowersOfTwo(sw.MinSize, sw.MaxSize)
	if len(spec.FixedSizes) > 0 {
		sizes = spec.FixedSizes // barrier has one size-less row
	}
	err = world.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		row := make([]byte, 48)
		for _, size := range sizes {
			iters, warmup := sw.Iters, sw.Warmup
			if size >= sw.LargeThreshold {
				iters, warmup = sw.LargeIters, sw.LargeWarmup
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			p.ResetClock()
			if err := c.Barrier(); err != nil {
				return err
			}
			for i := 0; i < warmup+iters; i++ {
				var err error
				switch sw.Benchmark {
				case "allreduce":
					err = c.AllreduceN(nil, nil, size, mpi.Float32, mpi.OpSum)
				case "bcast":
					err = c.BcastN(nil, size, 0)
				case "barrier":
					err = c.Barrier()
				default:
					err = fmt.Errorf("no probe for %q", sw.Benchmark)
				}
				if err != nil {
					return err
				}
			}
			if err := c.Reduce(row[:24], row[24:], mpi.Float64, mpi.OpMinSumMax, 0); err != nil {
				return err
			}
		}
		return nil
	})
	return world.FoldStats(), world.SchedFoldStats(), err
}
