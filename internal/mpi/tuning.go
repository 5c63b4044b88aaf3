package mpi

// Tuning is the threshold half of the algorithm-selection Policy: the
// Applicable predicates of the registered algorithms (see registry.go)
// compare these fields against the Selection, like MVAPICH2's MV2_*
// environment knobs parameterise its tuning tables. The defaults mirror
// the library's shipped tables; the ablation benchmarks override
// individual knobs to measure what each selection decision costs against
// its alternatives.
// Zero fields keep the defaults. Negative values disable an algorithm:
// for the *Max* fields the bounded algorithm can never be selected
// (e.g. AllgatherRDMaxTotal: -1 forces Bruck or ring); for the *Min*
// fields every size is at or above the switch point, so the small-message
// algorithm is disabled wherever the large one is applicable
// (e.g. BcastScatterRingMin: -1 disables the binomial tree on >2 ranks).
type Tuning struct {
	// BcastScatterRingMin is the message size at which Bcast switches from
	// the binomial tree to scatter + ring allgather.
	BcastScatterRingMin int `json:"bcast_scatter_ring_min,omitempty"`
	// AllreduceRabenseifnerMin is the size at which Allreduce switches
	// from recursive doubling to Rabenseifner.
	AllreduceRabenseifnerMin int `json:"allreduce_rabenseifner_min,omitempty"`
	// AllgatherRDMaxTotal bounds recursive-doubling allgather (power-of-two
	// groups) by total payload.
	AllgatherRDMaxTotal int `json:"allgather_rd_max_total,omitempty"`
	// AllgatherBruckMaxTotal bounds Bruck allgather by total payload.
	AllgatherBruckMaxTotal int `json:"allgather_bruck_max_total,omitempty"`
	// AlltoallBruckMaxBlock bounds Bruck alltoall by per-block size.
	AlltoallBruckMaxBlock int `json:"alltoall_bruck_max_block,omitempty"`
}

// DefaultTuning returns the shipped thresholds.
func DefaultTuning() Tuning {
	return Tuning{
		BcastScatterRingMin:      bcastLargeMin,
		AllreduceRabenseifnerMin: allreduceRabenseifnerMin,
		AllgatherRDMaxTotal:      allgatherRDMaxTotal,
		AllgatherBruckMaxTotal:   allgatherBruckMaxTotal,
		AlltoallBruckMaxBlock:    alltoallBruckMaxBlock,
	}
}

// withDefaults fills zero fields with the shipped values.
func (t Tuning) withDefaults() Tuning {
	d := DefaultTuning()
	if t.BcastScatterRingMin == 0 {
		t.BcastScatterRingMin = d.BcastScatterRingMin
	}
	if t.AllreduceRabenseifnerMin == 0 {
		t.AllreduceRabenseifnerMin = d.AllreduceRabenseifnerMin
	}
	if t.AllgatherRDMaxTotal == 0 {
		t.AllgatherRDMaxTotal = d.AllgatherRDMaxTotal
	}
	if t.AllgatherBruckMaxTotal == 0 {
		t.AllgatherBruckMaxTotal = d.AllgatherBruckMaxTotal
	}
	if t.AlltoallBruckMaxBlock == 0 {
		t.AlltoallBruckMaxBlock = d.AlltoallBruckMaxBlock
	}
	return t
}

// tuning returns the world's effective thresholds.
func (p *Proc) tuning() Tuning { return p.world.policy.Tuning }
