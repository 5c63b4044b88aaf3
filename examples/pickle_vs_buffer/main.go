// Pickle vs direct buffers: mpi4py offers two method families -- the
// direct-buffer Send/Recv (upper-case in mpi4py) and the serializing
// send/recv (lower-case), here SendObject/RecvObject. This example first
// demonstrates both APIs on a tiny 4-rank world (with payload verification
// through the real serializer), then reproduces the paper's Figures 30-31:
// pickle costs about a microsecond on small messages and diverges sharply
// past 64 KiB. Run with:
//
//	go run ./examples/pickle_vs_buffer
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi4py"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
	"repro/internal/stats"
	"repro/internal/topology"
)

func main() {
	demoObjectAPI()
	compareLatency()
}

// demoObjectAPI sends a NumPy array between two ranks through the pickle
// path and verifies the round-trip.
func demoObjectAPI() {
	place, err := topology.NewPlacement(&topology.Frontera, 2, 2, topology.Block, false)
	if err != nil {
		log.Fatal(err)
	}
	world, err := mpi.NewWorld(mpi.Config{
		Placement: place,
		Model:     netmodel.MustNew(&topology.Frontera, netmodel.MVAPICH2),
		PyMode:    true,
		CarryData: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	err = world.Run(func(p *mpi.Proc) error {
		comm, err := mpi4py.Wrap(p.CommWorld())
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			arr := pybuf.NewNumPy(mpi.Float64, 4)
			for i := 0; i < 4; i++ {
				pybuf.SetFloat64(arr, i, float64(i)*1.5)
			}
			return comm.SendObject(arr, 1, 0)
		}
		obj, _, err := comm.RecvObject(nil, 0, 0, nil)
		if err != nil {
			return err
		}
		fmt.Printf("rank 1 unpickled a %v array of %d float64s: ",
			obj.Library(), obj.Count())
		for i := 0; i < obj.Count(); i++ {
			fmt.Printf("%.1f ", pybuf.GetFloat64(obj, i))
		}
		fmt.Println()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

// compareLatency reproduces Figures 30-31.
func compareLatency() {
	run := func(mode core.Mode) *stats.Series {
		rep, err := core.Run(core.Options{
			Benchmark: core.Latency,
			Cluster:   "frontera",
			Mode:      mode,
			Buffer:    pybuf.NumPy,
			Ranks:     2,
			PPN:       1,
			MinSize:   1,
			MaxSize:   1 << 20,
		})
		if err != nil {
			log.Fatal(err)
		}
		return &rep.Series
	}
	direct := run(core.ModePy)
	pickle := run(core.ModePickle)

	fmt.Println("\nInter-node latency: pickle vs direct buffer (cf. paper Figs. 30-31)")
	fmt.Printf("%-10s %12s %12s %12s\n", "size", "direct(us)", "pickle(us)", "overhead")
	for _, r := range pickle.Rows {
		d, _ := direct.Get(r.Size)
		fmt.Printf("%-10s %12.2f %12.2f %12.2f\n",
			stats.HumanBytes(r.Size), d.AvgUs, r.AvgUs, r.AvgUs-d.AvgUs)
	}
	worst, at := stats.MaxOverheadUs(pickle, direct)
	fmt.Printf("\nmax pickle overhead: %.0f us at %s (paper: up to 1510 us, diverging past 64K)\n",
		worst, stats.HumanBytes(at))
}
