package chase

import (
	"sync/atomic"

	"repro/internal/atom"
)

// atomIndex maps global atom IDs to a chase's dense Universe indexes. It
// is a two-level direct map: a directory of fixed-size pages, a page
// allocated only when an atom in its ID range is numbered. Atom IDs are
// interned roughly in the order a chase meets them, so neighbouring
// lookups land on the same page — where a hash table would scatter them
// over the whole table — and the memory follows the atoms the chase
// touched, not the size of the shared store.
//
// The index belongs to an arena and is shared like the rest of it: the
// owner of the arena's tail adds entries while earlier results of the
// same arena look atoms up concurrently. Entries and directory slots are
// therefore read and written atomically, and a lookup ignores values at
// or past the looking result's own universe size — entries a later
// continuation added. Growing the directory makes a new one, so results
// still reading the old directory are unaffected.
type atomIndex struct {
	dir []atomic.Pointer[indexPage]
}

const pageBits = 10

// indexPage holds Universe index + 1 per atom ID of its range, 0 for
// none.
type indexPage [1 << pageBits]atomic.Int32

// get returns the index of g if it is below n, else -1.
func (x *atomIndex) get(g atom.AtomID, n int) int32 {
	pi := int(g) >> pageBits
	if g < 0 || pi >= len(x.dir) {
		return -1
	}
	pg := x.dir[pi].Load()
	if pg == nil {
		return -1
	}
	if d := pg[g&(1<<pageBits-1)].Load() - 1; d >= 0 && int(d) < n {
		return d
	}
	return -1
}

// put records g → d and returns the index to use from now on: x itself,
// or a copy with a directory large enough for g.
func (x *atomIndex) put(g atom.AtomID, d int32) *atomIndex {
	pi := int(g) >> pageBits
	if pi >= len(x.dir) {
		nx := &atomIndex{dir: make([]atomic.Pointer[indexPage], max(pi+1, 2*len(x.dir)))}
		for i := range x.dir {
			nx.dir[i].Store(x.dir[i].Load())
		}
		x = nx
	}
	pg := x.dir[pi].Load()
	if pg == nil {
		pg = new(indexPage)
		x.dir[pi].Store(pg)
	}
	pg[g&(1<<pageBits-1)].Store(d + 1)
	return x
}
