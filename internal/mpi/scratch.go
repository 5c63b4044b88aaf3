package mpi

// scratchArena is a freelist allocator bucketed by power-of-two capacity
// class. It backs two pools: the per-rank staging arena the collectives
// draw their accumulator, temporary and packing buffers from (a Proc is
// single-threaded, so no locking), and the byte half doubles as each
// mailbox's payload pool.
//
// get and getInts return zeroed memory, exactly like the make calls they
// replace: receive windows are normally filled by exact-size receives, but
// a timing-only world dropping a payload (size above the carry limit)
// leaves the window untouched, and recycled garbage there would be
// nondeterministic where make gave stable zeros. getRaw skips the clear
// for the one caller that provably overwrites the whole buffer.
type scratchArena struct {
	// seed is inline backing for the smallest class (64 B). Nearly every
	// buffer a timing-only world stages — 24-byte reduction rows above
	// all — lands there, and arenas are embedded in per-world slabs, so
	// serving the first few tiny buffers from the struct itself keeps the
	// steady-state sweep free of per-run make calls. small holds their
	// freelist slots inline for the same reason: the class freelist would
	// otherwise regrow once per arena per run.
	seedN  int8
	smallN int8
	seed   [scratchSeeds][1 << payloadMinClass]byte
	small  [scratchSeeds][]byte
	// cls holds the freelists of every class, set by the first release
	// the inline slots cannot take. A timing-only world stages little
	// beyond its tiny rows, so in a huge world nearly every arena leaves
	// it nil, and the slab carries one pointer per arena instead of the
	// tables. A recycled slab keeps an arena's tables, emptied
	// (reuseArenaSlab), so a data-carrying run allocates them once.
	cls *scratchClasses
}

// scratchSeeds bounds the inline buffers per arena; a binomial reduce
// parent rarely holds more than a few staged rows at once, and overflow
// just falls back to the heap classes.
const scratchSeeds = 4

// scratchClasses is an arena's per-class freelists.
type scratchClasses struct {
	bytes [payloadMaxClass + 1][][]byte
	ints  [payloadMaxClass + 1][][]int
}

func (a *scratchArena) get(n int) []byte {
	b := a.getRaw(n)
	clear(b)
	return b
}

// getRaw is get without the clear; contents are unspecified. Only for
// buffers that are fully overwritten before any byte is exposed (the
// mailbox payload staging copy).
func (a *scratchArena) getRaw(n int) []byte {
	c := payloadClass(n)
	if c > payloadMaxClass {
		return make([]byte, n)
	}
	if c == payloadMinClass {
		if l := a.smallN; l > 0 {
			a.smallN--
			b := a.small[l-1]
			a.small[l-1] = nil
			return b[:n]
		}
		if a.seedN < scratchSeeds {
			b := a.seed[a.seedN][:]
			a.seedN++
			return b[:n]
		}
	}
	if a.cls != nil {
		if l := len(a.cls.bytes[c]); l > 0 {
			b := a.cls.bytes[c][l-1]
			a.cls.bytes[c][l-1] = nil
			a.cls.bytes[c] = a.cls.bytes[c][:l-1]
			return b[:n]
		}
	}
	return make([]byte, 1<<c)[:n]
}

func (a *scratchArena) put(b []byte) {
	if b == nil {
		return
	}
	c := payloadClass(cap(b))
	if c > payloadMaxClass || cap(b) != 1<<c {
		return
	}
	if c == payloadMinClass && a.smallN < scratchSeeds {
		a.small[a.smallN] = b[:cap(b)]
		a.smallN++
		return
	}
	cls := a.classes()
	cls.bytes[c] = append(cls.bytes[c], b[:cap(b)])
}

// classes returns the arena's class freelists, creating them on first use.
func (a *scratchArena) classes() *scratchClasses {
	if a.cls == nil {
		a.cls = new(scratchClasses)
	}
	return a.cls
}

func (a *scratchArena) getInts(n int) []int {
	c := payloadClass(n)
	if c > payloadMaxClass {
		return make([]int, n)
	}
	if a.cls != nil {
		if l := len(a.cls.ints[c]); l > 0 {
			b := a.cls.ints[c][l-1]
			a.cls.ints[c][l-1] = nil
			a.cls.ints[c] = a.cls.ints[c][:l-1]
			b = b[:n]
			clear(b)
			return b
		}
	}
	return make([]int, 1<<c)[:n]
}

func (a *scratchArena) putInts(b []int) {
	if b == nil {
		return
	}
	c := payloadClass(cap(b))
	if c > payloadMaxClass || cap(b) != 1<<c {
		return
	}
	cls := a.classes()
	cls.ints[c] = append(cls.ints[c], b[:cap(b)])
}

// scratch returns a zeroed n-byte staging buffer from the rank's arena;
// pair with release.
func (c *Comm) scratch(n int) []byte { return c.proc.arena.get(n) }

// release returns staging buffers to the rank's arena; nil entries are
// ignored, so timing-only paths can release unconditionally.
func (c *Comm) release(bufs ...[]byte) {
	for _, b := range bufs {
		c.proc.arena.put(b)
	}
}

// scratchInts returns a zeroed n-element offset/bounds slice from the
// rank's arena; pair with releaseInts.
func (c *Comm) scratchInts(n int) []int { return c.proc.arena.getInts(n) }

// releaseInts returns an offset slice to the rank's arena.
func (c *Comm) releaseInts(b []int) { c.proc.arena.putInts(b) }
