package mpi

// blockBoundsFor returns the aligned block partition of n bytes through
// the world's one partition slot: the bounds depend on nothing else, so
// every rank of the world shares one slice (a huge world computing the same
// 4096-block partition once per rank would allocate O(size^2) aggregate
// ints per run). A world's ranks run on one goroutine, so the slot needs no
// lock. The bounds are consumed at schedule-build time only (their values
// are baked into the compiled steps), and a slice is never mutated once
// handed out, so it stays valid after the slot moves on to another key.
func (c *Comm) blockBoundsFor(n, parts, align int) []int {
	w := c.proc.world
	if w.bounds == nil || w.boundsN != n || w.boundsParts != parts || w.boundsAlign != align {
		w.bounds = blockBounds(n, parts, align)
		w.boundsN, w.boundsParts, w.boundsAlign = n, parts, align
	}
	return w.bounds
}
