package bigint

import "sync"

// arena is a bump allocator for limb scratch. The Karatsuba recursion and
// the Acc accumulator draw their temporaries from an arena instead of the
// heap, so a multiplication performs O(1) heap allocations regardless of
// recursion depth: one slab is rented from a sync.Pool per top-level call,
// carved up with mark/release discipline, and returned when done.
//
// An arena is not safe for concurrent use; rent one per goroutine with
// getArena and return it with putArena.
type arena struct {
	buf []uint64
	off int
}

// mark returns the current allocation offset; release(mark()) frees every
// allocation made in between (sibling recursion branches reuse the space).
func (a *arena) mark() int { return a.off }

// release rewinds the arena to a previous mark.
func (a *arena) release(m int) { a.off = m }

// alloc returns a zeroed length-n limb slice. When the slab is exhausted it
// falls back to the heap — correctness never depends on ensure's sizing.
func (a *arena) alloc(n int) nat {
	if a.off+n > len(a.buf) {
		return make(nat, n)
	}
	z := a.buf[a.off : a.off+n]
	a.off += n
	clear(z)
	return z
}

// ensure grows the slab to at least n limbs. It must only be called while
// the arena is empty (no outstanding allocations), since growth replaces the
// backing array — live allocations would silently keep pointing at the old
// slab while new ones come from the new slab. Misuse panics instead of
// no-op'ing.
func (a *arena) ensure(n int) {
	if a.off != 0 {
		panic("bigint: arena.ensure called with outstanding allocations (ensure must precede all alloc calls)")
	}
	if len(a.buf) < n {
		a.buf = make([]uint64, n)
	}
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena { return arenaPool.Get().(*arena) }

func putArena(a *arena) {
	a.off = 0
	arenaPool.Put(a)
}
