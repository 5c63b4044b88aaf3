package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Comm is a communicator: an ordered group of world ranks with a private
// message context, analogous to MPI_Comm. A Comm value is bound to one rank
// (its proc) and must only be used from that rank's body; the
// "collective" methods must be called by every member.
type Comm struct {
	// collSeq counts the communicator's collective invocations; each one
	// is stamped with its own internal tag (see nextCollTag). Collective
	// calls are collectively ordered, so every member's counter agrees.
	// First field on purpose: a fold resolution bumps every world rank's
	// comm0v.collSeq, and here it shares the Proc's first cache line with
	// the clock that fanout writes anyway (see the Proc layout comment).
	collSeq int
	proc    *Proc
	ctx     int
	group   []int // communicator rank -> world rank
	rank    int   // this process's communicator rank
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Proc returns the owning process handle.
func (c *Comm) Proc() *Proc { return c.proc }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.group[r] }

// checkRank validates a communicator rank argument.
func (c *Comm) checkRank(r int, what string) error {
	if r < 0 || r >= len(c.group) {
		return fmt.Errorf("mpi: %s %d out of range [0,%d)", what, r, len(c.group))
	}
	return nil
}

// Internal tag space: collectives stamp messages above MaxUserTag so they
// can never match application receives. Each invocation draws its own tag
// from the communicator's collective sequence (see nextCollTag in
// collsched.go), which also keeps concurrent nonblocking collectives on one
// communicator from cross-matching.

// Dup returns a communicator with the same group but a fresh context, so
// traffic on the duplicate can never match traffic on the original. Must be
// called collectively.
func (c *Comm) Dup() (*Comm, error) {
	// Rank 0 allocates a context id and broadcasts it.
	var buf [8]byte
	if c.rank == 0 {
		ctx := c.proc.world.allocCtx(1)
		binary.LittleEndian.PutUint64(buf[:], uint64(ctx))
	}
	if err := c.Bcast(buf[:], 0); err != nil {
		return nil, fmt.Errorf("mpi: Dup: %w", err)
	}
	ctx := int(binary.LittleEndian.Uint64(buf[:]))
	group := make([]int, len(c.group))
	copy(group, c.group)
	return &Comm{proc: c.proc, ctx: ctx, group: group, rank: c.rank}, nil
}

// Split partitions the communicator by color, ordering each new group by
// (key, old rank), like MPI_Comm_split. Every member must call it; members
// passing the same color end up in the same new communicator.
func (c *Comm) Split(color, key int) (*Comm, error) {
	p := len(c.group)
	// Gather (color, key) from everybody.
	mine := make([]byte, 16)
	binary.LittleEndian.PutUint64(mine[0:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	all := make([]byte, 16*p)
	if err := c.Allgather(mine, all); err != nil {
		return nil, fmt.Errorf("mpi: Split allgather: %w", err)
	}
	type member struct{ color, key, oldRank int }
	members := make([]member, p)
	colorSet := map[int]bool{}
	for r := 0; r < p; r++ {
		members[r] = member{
			color:   int(int64(binary.LittleEndian.Uint64(all[16*r:]))),
			key:     int(int64(binary.LittleEndian.Uint64(all[16*r+8:]))),
			oldRank: r,
		}
		colorSet[members[r].color] = true
	}
	colors := make([]int, 0, len(colorSet))
	for col := range colorSet {
		colors = append(colors, col)
	}
	sort.Ints(colors)

	// Rank 0 reserves one context per distinct color and broadcasts the
	// base; each color then deterministically picks base + its index.
	var buf [8]byte
	if c.rank == 0 {
		base := c.proc.world.allocCtx(len(colors))
		binary.LittleEndian.PutUint64(buf[:], uint64(base))
	}
	if err := c.Bcast(buf[:], 0); err != nil {
		return nil, fmt.Errorf("mpi: Split bcast: %w", err)
	}
	base := int(binary.LittleEndian.Uint64(buf[:]))

	colorIdx := sort.SearchInts(colors, color)
	var mates []member
	for _, m := range members {
		if m.color == color {
			mates = append(mates, m)
		}
	}
	sort.Slice(mates, func(i, j int) bool {
		if mates[i].key != mates[j].key {
			return mates[i].key < mates[j].key
		}
		return mates[i].oldRank < mates[j].oldRank
	})
	group := make([]int, len(mates))
	myNew := -1
	for i, m := range mates {
		group[i] = c.group[m.oldRank]
		if m.oldRank == c.rank {
			myNew = i
		}
	}
	return &Comm{proc: c.proc, ctx: base + colorIdx, group: group, rank: myNew}, nil
}
