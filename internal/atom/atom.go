// Package atom implements the relational layer of the system: predicate
// schemas, interned ground atoms, atom patterns with variables, and the
// matching machinery used by the chase and by query evaluation (paper §2.1).
//
// Ground atoms are interned like terms: a ground atom P(t1,…,tn) has a
// unique AtomID within a Store, so atom sets and indexes operate on dense
// integers.
//
// Like term stores, atom stores support Freeze/Clone/NewOverlay (see the
// term package comment): a frozen store serves concurrent readers, and an
// overlay interns new predicates and atoms into a private layer that
// continues the frozen base's ID space. The engine's snapshot machinery
// uses overlays both for per-evaluation chase universes and for per-call
// query interning.
package atom

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/term"
)

// PredID identifies a predicate (relation name + arity) within a Store.
type PredID int32

// AtomID identifies an interned ground atom within a Store.
type AtomID int32

// NoAtom is the null atom ID, used as a sentinel.
const NoAtom AtomID = -1

type predData struct {
	name  string
	arity int
}

// Store interns predicates and ground atoms over a term store. A Store is
// not safe for concurrent mutation; a frozen Store is safe for unlimited
// concurrent readers.
type Store struct {
	Terms *term.Store

	preds   []predData // local predicates; global ID = offPreds + index
	predIdx map[string]PredID

	atoms    []atomData // local atoms; global ID = offAtoms + index
	atomIdx  map[string]AtomID
	byPred   map[PredID][]AtomID // locally interned atoms per predicate
	argSpace []term.ID           // flat backing array for local atom args

	// Overlay support (see package comment).
	base     *Store
	offPreds int
	offAtoms int
	frozen   bool
}

type atomData struct {
	pred PredID
	off  int32
	n    int32
}

// NewStore returns an empty root atom store over the given term store.
func NewStore(ts *term.Store) *Store {
	return &Store{
		Terms:   ts,
		predIdx: make(map[string]PredID),
		atomIdx: make(map[string]AtomID),
		byPred:  make(map[PredID][]AtomID),
	}
}

// NewOverlay returns a mutable store layered over base, which must be
// frozen. The overlay owns a term-store overlay over base.Terms, so one
// NewOverlay call yields a complete private interning context sharing the
// base's ID spaces.
func NewOverlay(base *Store) *Store {
	if !base.frozen {
		panic("atom: NewOverlay over an unfrozen base store")
	}
	s := NewStore(term.NewOverlay(base.Terms))
	s.base = base
	s.offPreds = base.NumPreds()
	s.offAtoms = base.Len()
	return s
}

// Clone returns a mutable deep copy of a root store (including its term
// store), preserving all IDs.
func (s *Store) Clone() *Store {
	if s.base != nil {
		panic("atom: Clone of an overlay store")
	}
	byPred := make(map[PredID][]AtomID, len(s.byPred))
	for p, as := range s.byPred {
		byPred[p] = append([]AtomID(nil), as...)
	}
	return &Store{
		Terms:    s.Terms.Clone(),
		preds:    append([]predData(nil), s.preds...),
		predIdx:  maps.Clone(s.predIdx),
		atoms:    append([]atomData(nil), s.atoms...),
		atomIdx:  maps.Clone(s.atomIdx),
		byPred:   byPred,
		argSpace: append([]term.ID(nil), s.argSpace...),
	}
}

// Freeze marks the store (and its term store) immutable: any further
// interning panics. Freeze is idempotent.
func (s *Store) Freeze() {
	s.frozen = true
	s.Terms.Freeze()
}

// Frozen reports whether the store has been frozen.
func (s *Store) Frozen() bool { return s.frozen }

// Pristine reports that this layer has interned nothing of its own: no
// predicates, atoms, terms, or functors beyond its base. A query compiled
// against a pristine overlay references only base IDs and is therefore
// valid against any store sharing that base.
func (s *Store) Pristine() bool {
	return len(s.preds) == 0 && len(s.atoms) == 0 &&
		s.Terms.NumLocal() == 0 && s.Terms.NumLocalFunctors() == 0
}

func (s *Store) mutable() {
	if s.frozen {
		panic("atom: interning into a frozen store (use an overlay)")
	}
}

// pred resolves a predicate ID through the overlay chain.
func (s *Store) pred(p PredID) *predData {
	for int(p) < s.offPreds {
		s = s.base
	}
	return &s.preds[int(p)-s.offPreds]
}

// atom resolves an atom ID through the overlay chain, returning the owning
// layer so args can be read from its argSpace.
func (s *Store) atom(a AtomID) (*Store, *atomData) {
	for int(a) < s.offAtoms {
		s = s.base
	}
	return s, &s.atoms[int(a)-s.offAtoms]
}

// Pred interns the predicate with the given name and arity. Predicates are
// identified by name: re-interning a name with a different arity returns an
// error, since the relational schema fixes one arity per relation name.
func (s *Store) Pred(name string, arity int) (PredID, error) {
	for c := s; c != nil; c = c.base {
		if id, ok := c.predIdx[name]; ok {
			if got := s.pred(id).arity; got != arity {
				return 0, fmt.Errorf("atom: predicate %s used with arity %d, previously %d", name, arity, got)
			}
			return id, nil
		}
	}
	s.mutable()
	id := PredID(s.offPreds + len(s.preds))
	s.preds = append(s.preds, predData{name: name, arity: arity})
	s.predIdx[name] = id
	return id, nil
}

// MustPred is Pred for arities known to be consistent; it panics on schema
// violations and is intended for programmatic construction in tests and
// generators.
func (s *Store) MustPred(name string, arity int) PredID {
	id, err := s.Pred(name, arity)
	if err != nil {
		panic(err)
	}
	return id
}

// LookupPred returns the ID of an already-interned predicate.
func (s *Store) LookupPred(name string) (PredID, bool) {
	for c := s; c != nil; c = c.base {
		if id, ok := c.predIdx[name]; ok {
			return id, true
		}
	}
	return 0, false
}

// PredName returns the relation name of p.
func (s *Store) PredName(p PredID) string { return s.pred(p).name }

// PredArity returns the arity of p.
func (s *Store) PredArity(p PredID) int { return s.pred(p).arity }

// NumPreds reports the number of interned predicates (including the base
// chain).
func (s *Store) NumPreds() int { return s.offPreds + len(s.preds) }

// MaxArity reports the maximum arity over all interned predicates (the w of
// Proposition 12), or 0 if no predicates exist.
func (s *Store) MaxArity() int {
	w := 0
	for c := s; c != nil; c = c.base {
		for i := range c.preds {
			if c.preds[i].arity > w {
				w = c.preds[i].arity
			}
		}
	}
	return w
}

// Atom interns the ground atom p(args...) and returns its ID. All args must
// be ground terms.
func (s *Store) Atom(p PredID, args []term.ID) AtomID {
	if want := s.pred(p).arity; len(args) != want {
		panic(fmt.Sprintf("atom: %s applied to %d args, want %d", s.pred(p).name, len(args), want))
	}
	var buf keyBuf
	key := atomKey(&buf, p, args)
	for c := s; c != nil; c = c.base {
		if id, ok := c.atomIdx[string(key)]; ok {
			return id
		}
	}
	s.mutable()
	for _, a := range args {
		if !s.Terms.IsGround(a) {
			panic("atom: interning non-ground atom")
		}
	}
	off := int32(len(s.argSpace))
	s.argSpace = append(s.argSpace, args...)
	id := AtomID(s.offAtoms + len(s.atoms))
	s.atoms = append(s.atoms, atomData{pred: p, off: off, n: int32(len(args))})
	s.atomIdx[string(key)] = id
	s.byPred[p] = append(s.byPred[p], id)
	return id
}

// Fact interns the database fact pred(args...) over constants: the
// predicate at arity len(args), then each constant in order, then the
// atom. An arity clash with the interned schema is the only error, and it
// interns nothing.
func (s *Store) Fact(pred string, args []string) (AtomID, error) {
	p, err := s.Pred(pred, len(args))
	if err != nil {
		return NoAtom, err
	}
	var small [8]term.ID
	ts := small[:0]
	if len(args) > len(small) {
		ts = make([]term.ID, 0, len(args))
	}
	for _, a := range args {
		ts = append(ts, s.Terms.Const(a))
	}
	return s.Atom(p, ts), nil
}

// Grow makes room for n more atoms with nargs arguments in total, so a
// bulk load of known size interns without regrowing the atom table.
func (s *Store) Grow(n, nargs int) {
	s.mutable()
	if len(s.atomIdx) == 0 {
		s.atomIdx = make(map[string]AtomID, n)
	}
	s.atoms = slices.Grow(s.atoms, n)
	s.argSpace = slices.Grow(s.argSpace, nargs)
}

// Lookup returns the ID of an already-interned ground atom, if present.
func (s *Store) Lookup(p PredID, args []term.ID) (AtomID, bool) {
	var buf keyBuf
	key := atomKey(&buf, p, args)
	for c := s; c != nil; c = c.base {
		if id, ok := c.atomIdx[string(key)]; ok {
			return id, true
		}
	}
	return NoAtom, false
}

// keyBuf holds the key of an atom of arity up to 8, so that building a
// key on the stack and indexing a map with string(key) allocates nothing;
// only a newly inserted key is copied to the heap.
type keyBuf [4 + 4*8]byte

// atomKey renders the map key of p(args...) — p and each argument as
// little-endian uint32s — into buf when it fits.
func atomKey(buf *keyBuf, p PredID, args []term.ID) []byte {
	key := buf[:0]
	if n := 4 + 4*len(args); n > len(buf) {
		key = make([]byte, 0, n)
	}
	key = binary.LittleEndian.AppendUint32(key, uint32(p))
	for _, a := range args {
		key = binary.LittleEndian.AppendUint32(key, uint32(a))
	}
	return key
}

// Len reports the number of interned ground atoms (including the base
// chain).
func (s *Store) Len() int { return s.offAtoms + len(s.atoms) }

// NumLocal reports the atoms interned into this layer alone.
func (s *Store) NumLocal() int { return len(s.atoms) }

// PredOf returns the predicate of atom a.
func (s *Store) PredOf(a AtomID) PredID {
	_, d := s.atom(a)
	return d.pred
}

// Args returns the argument slice of atom a (do not mutate).
func (s *Store) Args(a AtomID) []term.ID {
	owner, d := s.atom(a)
	return owner.argSpace[d.off : d.off+d.n]
}

// ByPred returns all interned atoms with predicate p, in interning order
// per layer, base layers first (do not mutate the per-layer slices). Note
// this includes every atom ever interned, which for engine stores is
// exactly the derived universe.
func (s *Store) ByPred(p PredID) []AtomID {
	if s.base == nil {
		return s.byPred[p]
	}
	base := s.base.ByPred(p)
	local := s.byPred[p]
	if len(local) == 0 {
		return base
	}
	out := make([]AtomID, 0, len(base)+len(local))
	out = append(out, base...)
	return append(out, local...)
}

// Dom returns the set of arguments of atom a (dom(a) in §2.1), with
// duplicates removed, in first-occurrence order.
func (s *Store) Dom(a AtomID) []term.ID {
	args := s.Args(a)
	out := make([]term.ID, 0, len(args))
	for _, t := range args {
		seen := false
		for _, u := range out {
			if u == t {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, t)
		}
	}
	return out
}

// TermDepth returns the maximum Skolem-nesting depth over the arguments of
// atom a; 0 if all arguments are constants.
func (s *Store) TermDepth(a AtomID) int {
	d := 0
	for _, t := range s.Args(a) {
		if td := s.Terms.Depth(t); td > d {
			d = td
		}
	}
	return d
}

// String renders a ground atom as name(arg,…).
func (s *Store) String(a AtomID) string {
	var b strings.Builder
	b.WriteString(s.PredName(s.PredOf(a)))
	args := s.Args(a)
	if len(args) == 0 {
		return b.String()
	}
	b.WriteByte('(')
	for i, t := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Terms.String(t))
	}
	b.WriteByte(')')
	return b.String()
}
