package term

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The arenas below hold a store's data in chunks that never move once
// allocated, so a reader holding an ID reads its data with no lock while
// the writer appends. A chunk directory is republished by atomic pointer
// when it gains a chunk. Every arena has one writer at a time (its store's
// mutex), and a reader only touches elements published before it obtained
// their ID.

// firstChunkBits sizes a Vec's chunks: chunk c holds 1<<(firstChunkBits+c)
// elements, so a small store allocates little and a large one few chunks.
const firstChunkBits = 6

// Vec is an append-only sequence of T addressed by a dense index.
type Vec[T any] struct {
	dir atomic.Pointer[[][]T]
	n   atomic.Int32
}

func locate(i int) (chunk, off int) {
	j := uint(i) + 1<<firstChunkBits
	chunk = bits.Len(j) - 1 - firstChunkBits
	return chunk, int(j - 1<<(chunk+firstChunkBits))
}

// Len reports the number of elements pushed.
func (v *Vec[T]) Len() int { return int(v.n.Load()) }

// At returns element i, which must have been pushed.
func (v *Vec[T]) At(i int) *T {
	c, o := locate(i)
	return &(*v.dir.Load())[c][o]
}

// Push appends x and returns its index. Callers serialize Push.
func (v *Vec[T]) Push(x T) int {
	i := v.Len()
	c, o := locate(i)
	dir := v.dir.Load()
	if dir == nil || c == len(*dir) {
		var old [][]T
		if dir != nil {
			old = *dir
		}
		nd := append(slices.Clip(old), make([]T, 1<<(c+firstChunkBits)))
		v.dir.Store(&nd)
		dir = &nd
	}
	(*dir)[c][o] = x
	v.n.Store(int32(i + 1))
	return i
}

// Ref locates a run of values in a Slab.
type Ref struct{ chunk, off int32 }

// Slab is an append-only arena of variable-length runs of T. A run lives
// inside one chunk.
type Slab[T any] struct {
	dir  atomic.Pointer[[][]T]
	used int // elements used in the last chunk; writer only
}

// Alloc reserves a run of n values and returns it for the caller to fill
// before publishing anything that refers to it. Callers serialize Alloc.
func (s *Slab[T]) Alloc(n int) (Ref, []T) {
	dir := s.dir.Load()
	if dir == nil || s.used+n > len((*dir)[len(*dir)-1]) {
		var old [][]T
		size := 256
		if dir != nil {
			old = *dir
			size = min(2*len(old[len(old)-1]), 1<<16)
		}
		nd := append(slices.Clip(old), make([]T, max(size, n)))
		s.dir.Store(&nd)
		dir, s.used = &nd, 0
	}
	r := Ref{int32(len(*dir) - 1), int32(s.used)}
	s.used += n
	return r, (*dir)[r.chunk][r.off:s.used:s.used]
}

// Get returns the run of n values at r (do not mutate).
func (s *Slab[T]) Get(r Ref, n int) []T {
	end := int(r.off) + n
	return (*s.dir.Load())[r.chunk][r.off:end:end]
}

// SlabString returns the run of n bytes at r as a string, without copying:
// runs are never written again once published.
func SlabString(s *Slab[byte], r Ref, n int) string {
	if n == 0 {
		return ""
	}
	return unsafe.String(&s.Get(r, n)[0], n)
}

// Index maps keys held in an arena to their IDs: an open-addressed table
// of slots, each packing a key's 32-bit hash with its ID+1 (0 is empty).
// Keys are never copied into it; a probe compares the arena contents of
// the candidate ID. The table grows by building a new one and publishing
// its pointer, and a slot is filled with one atomic store after the ID's
// data is written, so a lock-free reader that finds an ID can read it.
type Index struct {
	tab atomic.Pointer[[]atomic.Uint64]
	n   int // entries; writer only
}

// Find returns the ID with hash h whose key satisfies eq, or -1.
func (x *Index) Find(h uint32, eq func(id int32) bool) int32 {
	tab := x.tab.Load()
	if tab == nil {
		return -1
	}
	t := *tab
	mask := uint32(len(t) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t[i].Load()
		if s == 0 {
			return -1
		}
		if uint32(s>>32) == h {
			if id := int32(uint32(s)) - 1; eq(id) {
				return id
			}
		}
	}
}

// Intern returns the ID with hash h whose key satisfies eq. On a miss it
// takes mu, looks again, and otherwise appends the key with add, which
// returns the new ID once its data is written.
func (x *Index) Intern(mu *sync.Mutex, h uint32, eq func(id int32) bool, add func() int32) int32 {
	if id := x.Find(h, eq); id >= 0 {
		return id
	}
	mu.Lock()
	defer mu.Unlock()
	if id := x.Find(h, eq); id >= 0 {
		return id
	}
	id := add()
	x.Grow(1)
	put(*x.tab.Load(), uint64(h)<<32|uint64(uint32(id+1)))
	x.n++
	return id
}

// Grow makes room for more entries. Callers hold the store mutex.
func (x *Index) Grow(more int) {
	n := x.n + more
	tab := x.tab.Load()
	if tab != nil && 4*n <= 3*len(*tab) {
		return
	}
	size := 64
	for 4*n > 3*size {
		size *= 2
	}
	nt := make([]atomic.Uint64, size)
	if tab != nil {
		for i := range *tab {
			if s := (*tab)[i].Load(); s != 0 {
				put(nt, s)
			}
		}
	}
	x.tab.Store(&nt)
}

func put(t []atomic.Uint64, s uint64) {
	mask := uint32(len(t) - 1)
	for i := uint32(s>>32) & mask; ; i = (i + 1) & mask {
		if t[i].Load() == 0 {
			t[i].Store(s)
			return
		}
	}
}

var seed = maphash.MakeSeed()

// HashString hashes a name under a tag that separates name spaces.
func HashString(tag int32, s string) uint32 {
	h := maphash.String(seed, s) ^ uint64(uint32(tag))*0x9e3779b97f4a7c15
	return uint32(h ^ h>>32)
}

// HashIDs hashes a tag (a functor or predicate) followed by IDs.
func HashIDs(tag int32, ids []ID) uint32 {
	h := uint64(uint32(tag)) * 0x9e3779b97f4a7c15
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return uint32(h ^ h>>32)
}
