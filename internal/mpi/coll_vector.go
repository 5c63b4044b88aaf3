package mpi

import "fmt"

// Vector-variant collectives (Gatherv, Scatterv, Allgatherv, Alltoallv),
// compiled as schedules like every other collective. Like MPICH and
// MVAPICH2, these use linear algorithms: with per-rank counts the tree
// optimisations give little and the reference implementations keep them
// linear, so the benchmark shapes match. Counts and displacements are in
// bytes. Buffers may be nil in timing-only worlds. Their per-rank counts
// keep them out of the registry: each rank compiles its own schedule on
// every call, labelled for the fault layer, and drives it per rank.

// Labels of the vector forms.
const (
	collGatherv    Collective = "gatherv"
	collScatterv   Collective = "scatterv"
	collAllgatherv Collective = "allgatherv"
	collAlltoallv  Collective = "alltoallv"
)

func checkVector(counts, displs []int, p int, what string) error {
	if len(counts) != p {
		return fmt.Errorf("mpi: %s counts length %d != %d ranks", what, len(counts), p)
	}
	if displs != nil && len(displs) != p {
		return fmt.Errorf("mpi: %s displs length %d != %d ranks", what, len(displs), p)
	}
	for r, cnt := range counts {
		if cnt < 0 {
			return fmt.Errorf("mpi: %s count[%d]=%d negative", what, r, cnt)
		}
	}
	return nil
}

// contiguousDispls derives displacements for nil displs (packed layout).
func contiguousDispls(counts []int) []int {
	displs := make([]int, len(counts))
	off := 0
	for r, cnt := range counts {
		displs[r] = off
		off += cnt
	}
	return displs
}

// Gatherv gathers counts[r] bytes from rank r into rbuf at displs[r] on
// root; each rank sends the first scount bytes of sbuf, as MPI_Gatherv's
// sendcount. rbuf, counts and displs are read only at root, and displs ==
// nil means packed layout.
func (c *Comm) Gatherv(sbuf []byte, scount int, rbuf []byte, counts, displs []int, root int) error {
	if err := c.checkRank(root, "Gatherv root"); err != nil {
		return err
	}
	p := len(c.group)
	if c.rank != root {
		s := c.getSched(collGatherv)
		s.send(root, sbuf, scount)
		return c.drive("Gatherv", s, nil)
	}
	if err := checkVector(counts, displs, p, "Gatherv"); err != nil {
		return err
	}
	if displs == nil {
		displs = contiguousDispls(counts)
	}
	if sbuf != nil && rbuf != nil {
		copy(rbuf[displs[root]:displs[root]+counts[root]], sbuf[:counts[root]])
	}
	s := c.getSched(collGatherv)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		s.recv(r, sliceOrNil(rbuf, displs[r], displs[r]+counts[r]), counts[r])
	}
	return c.drive("Gatherv", s, nil)
}

// Scatterv scatters counts[r] bytes at displs[r] of sbuf on root to rank
// r, which receives at most rcount bytes into rbuf, as MPI_Scatterv's
// recvcount. sbuf, counts and displs are read only at root, and displs ==
// nil means packed layout.
func (c *Comm) Scatterv(sbuf []byte, counts, displs []int, rbuf []byte, rcount, root int) error {
	if err := c.checkRank(root, "Scatterv root"); err != nil {
		return err
	}
	p := len(c.group)
	if c.rank != root {
		s := c.getSched(collScatterv)
		s.recv(root, rbuf, rcount)
		return c.drive("Scatterv", s, nil)
	}
	if err := checkVector(counts, displs, p, "Scatterv"); err != nil {
		return err
	}
	if displs == nil {
		displs = contiguousDispls(counts)
	}
	s := c.getSched(collScatterv)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		s.send(r, sliceOrNil(sbuf, displs[r], displs[r]+counts[r]), counts[r])
	}
	if sbuf != nil && rbuf != nil {
		s.copyStep(rbuf[:counts[root]], sbuf[displs[root]:displs[root]+counts[root]], counts[root])
	}
	return c.drive("Scatterv", s, nil)
}

// Allgatherv gathers counts[r] bytes from rank r to every rank at displs[r].
// Implemented, as in the reference MPI libraries, as a ring of p-1 rounds so
// each round forwards one rank's (variable-sized) block.
func (c *Comm) Allgatherv(sbuf []byte, rbuf []byte, counts, displs []int) error {
	p := len(c.group)
	if err := checkVector(counts, displs, p, "Allgatherv"); err != nil {
		return err
	}
	if displs == nil {
		displs = contiguousDispls(counts)
	}
	if sbuf != nil && rbuf != nil {
		copy(rbuf[displs[c.rank]:displs[c.rank]+counts[c.rank]], sbuf[:counts[c.rank]])
	}
	if p == 1 {
		return nil
	}
	s := c.getSched(collAllgatherv)
	sendTo := (c.rank + 1) % p
	recvFrom := (c.rank - 1 + p) % p
	have := c.rank
	for step := 0; step < p-1; step++ {
		want := (have - 1 + p) % p
		s.exchange(sendTo, sliceOrNil(rbuf, displs[have], displs[have]+counts[have]), counts[have],
			recvFrom, sliceOrNil(rbuf, displs[want], displs[want]+counts[want]), counts[want])
		have = want
	}
	return c.drive("Allgatherv", s, nil)
}

// Alltoallv exchanges scounts[r] bytes at sdispls[r] of sbuf with every rank
// r, receiving rcounts[r] bytes at rdispls[r] of rbuf, via pairwise rounds.
func (c *Comm) Alltoallv(sbuf []byte, scounts, sdispls []int, rbuf []byte, rcounts, rdispls []int) error {
	p := len(c.group)
	if err := checkVector(scounts, sdispls, p, "Alltoallv send"); err != nil {
		return err
	}
	if err := checkVector(rcounts, rdispls, p, "Alltoallv recv"); err != nil {
		return err
	}
	if sdispls == nil {
		sdispls = contiguousDispls(scounts)
	}
	if rdispls == nil {
		rdispls = contiguousDispls(rcounts)
	}
	if sbuf != nil && rbuf != nil {
		copy(rbuf[rdispls[c.rank]:rdispls[c.rank]+rcounts[c.rank]],
			sbuf[sdispls[c.rank]:sdispls[c.rank]+scounts[c.rank]])
	}
	if p == 1 {
		return nil
	}
	s := c.getSched(collAlltoallv)
	for k := 1; k < p; k++ {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		s.exchange(dst, sliceOrNil(sbuf, sdispls[dst], sdispls[dst]+scounts[dst]), scounts[dst],
			src, sliceOrNil(rbuf, rdispls[src], rdispls[src]+rcounts[src]), rcounts[src])
	}
	return c.drive("Alltoallv", s, nil)
}
