// Package atom implements the relational layer of the system: predicate
// schemas, interned ground atoms, atom patterns with variables, and the
// matching machinery used by the chase and by query evaluation (paper §2.1).
//
// Ground atoms are interned like terms: a ground atom P(t1,…,tn) has a
// unique AtomID within a Store, so atom sets and indexes operate on dense
// integers.
//
// One Store serves a whole system, shared by its writer, every snapshot
// and every model (see the term package comment): an AtomID, once
// assigned, names the same atom for ever.
package atom

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/term"
)

// PredID identifies a predicate (relation name + arity) within a Store.
type PredID int32

// AtomID identifies an interned ground atom within a Store.
type AtomID int32

// NoAtom is the null atom ID, used as a sentinel.
const NoAtom AtomID = -1

type predRec struct {
	at       term.Ref // name bytes
	n, arity int32
}

type atomRec struct {
	pred PredID
	n    int32    // argument count
	at   term.Ref // arguments
}

// Store interns predicates and ground atoms over a term store. Like the
// term store it is safe for concurrent use: interning appends under one
// mutex, and lookups and reads by ID take no lock.
type Store struct {
	Terms *term.Store

	mu    sync.Mutex // serializes appends
	preds term.Vec[predRec]
	atoms term.Vec[atomRec]
	text  term.Slab[byte]    // predicate names
	args  term.Slab[term.ID] // atom arguments

	predX term.Index // by name
	atomX term.Index // by predicate and arguments
}

// NewStore returns an empty atom store over the given term store.
func NewStore(ts *term.Store) *Store { return &Store{Terms: ts} }

func (s *Store) pred(p PredID) *predRec { return s.preds.At(int(p)) }

// Pred interns the predicate with the given name and arity. Predicates are
// identified by name: re-interning a name with a different arity returns an
// error, since the relational schema fixes one arity per relation name.
func (s *Store) Pred(name string, arity int) (PredID, error) {
	id := PredID(s.predX.Intern(&s.mu, term.HashString(0, name), s.isPred(name), func() int32 {
		at, b := s.text.Alloc(len(name))
		copy(b, name)
		return int32(s.preds.Push(predRec{at: at, n: int32(len(name)), arity: int32(arity)}))
	}))
	if err := s.checkArity(id, name, arity); err != nil {
		return 0, err
	}
	return id, nil
}

func (s *Store) isPred(name string) func(int32) bool {
	return func(id int32) bool { return s.PredName(PredID(id)) == name }
}

func (s *Store) checkArity(p PredID, name string, arity int) error {
	if got := s.PredArity(p); got != arity {
		return ArityError(name, arity, got)
	}
	return nil
}

// ArityError is the schema violation of using predicate name at arity
// after it was interned at arity prev.
func ArityError(name string, arity, prev int) error {
	return fmt.Errorf("atom: predicate %s used with arity %d, previously %d", name, arity, prev)
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
	id := s.predX.Find(term.HashString(0, name), s.isPred(name))
	return PredID(id), id >= 0
}

// ResolvePred is LookupPred checking the arity as Pred does: an unknown
// name is (0, false, nil), a known one at another arity an ArityError.
func (s *Store) ResolvePred(name string, arity int) (PredID, bool, error) {
	p, ok := s.LookupPred(name)
	if !ok {
		return 0, false, nil
	}
	return p, true, s.checkArity(p, name, arity)
}

// PredName returns the relation name of p.
func (s *Store) PredName(p PredID) string {
	r := s.pred(p)
	return term.SlabString(&s.text, r.at, int(r.n))
}

// PredArity returns the arity of p.
func (s *Store) PredArity(p PredID) int { return int(s.pred(p).arity) }

// NumPreds reports the number of interned predicates.
func (s *Store) NumPreds() int { return s.preds.Len() }

// MaxArity reports the maximum arity over all interned predicates (the w of
// Proposition 12), or 0 if no predicates exist.
func (s *Store) MaxArity() int {
	w := 0
	for p := range s.NumPreds() {
		w = max(w, s.PredArity(PredID(p)))
	}
	return w
}

// Atom interns the ground atom p(args...) and returns its ID. All args must
// be ground terms.
func (s *Store) Atom(p PredID, args []term.ID) AtomID {
	if want := s.PredArity(p); len(args) != want {
		panic(fmt.Sprintf("atom: %s applied to %d args, want %d", s.PredName(p), len(args), want))
	}
	return AtomID(s.atomX.Intern(&s.mu, term.HashIDs(int32(p), args), s.isAtom(p, args), func() int32 {
		for _, a := range args {
			if !s.Terms.IsGround(a) {
				panic("atom: interning non-ground atom")
			}
		}
		at, b := s.args.Alloc(len(args))
		copy(b, args)
		return int32(s.atoms.Push(atomRec{pred: p, n: int32(len(args)), at: at}))
	}))
}

func (s *Store) isAtom(p PredID, args []term.ID) func(int32) bool {
	return func(id int32) bool {
		r := s.atoms.At(int(id))
		return r.pred == p && slices.Equal(s.args.Get(r.at, int(r.n)), args)
	}
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

// Grow makes room for n more atoms, so a bulk load of known size interns
// without regrowing the atom index. (Atom data lives in chunks that never
// move, so it never regrows.)
func (s *Store) Grow(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.atomX.Grow(n)
}

// Lookup returns the ID of an already-interned ground atom, if present.
func (s *Store) Lookup(p PredID, args []term.ID) (AtomID, bool) {
	id := s.atomX.Find(term.HashIDs(int32(p), args), s.isAtom(p, args))
	return AtomID(id), id >= 0
}

// Len reports the number of interned ground atoms.
func (s *Store) Len() int { return s.atoms.Len() }

// PredOf returns the predicate of atom a.
func (s *Store) PredOf(a AtomID) PredID { return s.atoms.At(int(a)).pred }

// Args returns the argument slice of atom a (do not mutate).
func (s *Store) Args(a AtomID) []term.ID {
	r := s.atoms.At(int(a))
	return s.args.Get(r.at, int(r.n))
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
