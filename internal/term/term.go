// Package term implements the term universe of guarded normal Datalog±
// under the unique name assumption (UNA): data constants from ∆, variables
// from V, and labelled nulls from ∆N represented as ground Skolem terms
// f_{σ,Z}(t1,…,tk) produced by the functional transformation of a program
// (paper §2.1, §2.4).
//
// All terms are interned in a Store: two structurally equal terms always
// receive the same ID, so term equality is integer equality. This is what
// realizes the UNA over the Skolemized Herbrand universe: distinct constants
// are distinct values, and a Skolem term equals another term only if they
// are syntactically identical.
//
// # One interner
//
// A Store is append-only, and an ID means the same term for ever once it
// is assigned: the chase only adds, and a labelled null is a syntactic
// Skolem term. So one store serves a whole system — its writer, every
// snapshot and every model — with no copies. Interning looks the key up
// without a lock and, on a miss, appends under the store's one mutex;
// lookups and reads by ID never lock. Term data lives in pointer-free
// chunks that never move, and the index is an open-addressed table of IDs
// whose keys are the arena contents themselves (arena.go).
package term

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// ID identifies an interned term within a Store.
type ID int32

// None is the null term ID, used as a sentinel.
const None ID = -1

// FunctorID identifies an interned Skolem functor within a Store.
type FunctorID int32

// Kind classifies a term.
type Kind int8

const (
	// Const is a data constant from ∆.
	Const Kind = iota
	// Var is a variable from V (only appears in rules and queries).
	Var
	// Skolem is a ground Skolem term from ∆N (a labelled null).
	Skolem
)

func (k Kind) String() string {
	switch k {
	case Const:
		return "const"
	case Var:
		return "var"
	case Skolem:
		return "skolem"
	default:
		return fmt.Sprintf("Kind(%d)", int8(k))
	}
}

// rec is one interned term. It holds no pointers: a name or a Skolem
// argument list lives in one of the store's slabs.
type rec struct {
	kind  Kind
	fn    FunctorID // Skolem functor; -1 otherwise
	depth int32     // nesting depth: 0 for constants/variables
	n     int32     // name length, or Skolem argument count
	at    Ref       // name bytes, or Skolem arguments
}

type functorRec struct {
	at       Ref // name bytes
	n, arity int32
}

// Store interns terms and Skolem functors. It is safe for concurrent use:
// interning appends under one mutex, and lookups and reads by ID take no
// lock (see the package comment). The zero value is an empty store.
type Store struct {
	mu       sync.Mutex // serializes appends
	terms    Vec[rec]
	functors Vec[functorRec]
	text     Slab[byte] // constant, variable and functor names
	args     Slab[ID]   // Skolem arguments

	names    Index // constants and variables, by kind and name
	skolems  Index // by functor and arguments
	functorX Index // by name
}

// NewStore returns an empty term store.
func NewStore() *Store { return &Store{} }

func (s *Store) data(t ID) *rec { return s.terms.At(int(t)) }

func (s *Store) functor(f FunctorID) *functorRec { return s.functors.At(int(f)) }

func (s *Store) name(r *rec) string { return SlabString(&s.text, r.at, int(r.n)) }

// Len reports the number of interned terms.
func (s *Store) Len() int { return s.terms.Len() }

// NumFunctors reports the number of interned Skolem functors.
func (s *Store) NumFunctors() int { return s.functors.Len() }

// Const interns the data constant with the given name and returns its ID.
func (s *Store) Const(name string) ID { return s.named(Const, name) }

// Var interns the variable with the given name and returns its ID.
// Variables live in the same ID space as other terms so substitutions can
// be expressed as term-to-term maps.
func (s *Store) Var(name string) ID { return s.named(Var, name) }

func (s *Store) named(k Kind, name string) ID {
	return ID(s.names.Intern(&s.mu, HashString(int32(k), name), s.isNamed(k, name), func() int32 {
		at, b := s.text.Alloc(len(name))
		copy(b, name)
		return int32(s.terms.Push(rec{kind: k, fn: -1, n: int32(len(name)), at: at}))
	}))
}

func (s *Store) isNamed(k Kind, name string) func(int32) bool {
	return func(id int32) bool {
		r := s.data(ID(id))
		return r.kind == k && s.name(r) == name
	}
}

// LookupConst returns the ID of an already-interned constant.
func (s *Store) LookupConst(name string) (ID, bool) {
	id := s.names.Find(HashString(int32(Const), name), s.isNamed(Const, name))
	return ID(id), id >= 0
}

// Functor interns a Skolem functor f_{σ,Z} by name with a fixed arity.
// Re-interning an existing name with a different arity is a programming
// error and panics: functor identity includes its arity by construction.
func (s *Store) Functor(name string, arity int) FunctorID {
	id := FunctorID(s.functorX.Intern(&s.mu, HashString(0, name), func(id int32) bool {
		return s.FunctorName(FunctorID(id)) == name
	}, func() int32 {
		at, b := s.text.Alloc(len(name))
		copy(b, name)
		return int32(s.functors.Push(functorRec{at: at, n: int32(len(name)), arity: int32(arity)}))
	}))
	if got := s.FunctorArity(id); got != arity {
		panic(fmt.Sprintf("term: functor %q re-declared with arity %d (was %d)", name, arity, got))
	}
	return id
}

// FunctorName returns the name of an interned functor.
func (s *Store) FunctorName(f FunctorID) string {
	r := s.functor(f)
	return SlabString(&s.text, r.at, int(r.n))
}

// FunctorArity returns the arity of an interned functor.
func (s *Store) FunctorArity(f FunctorID) int { return int(s.functor(f).arity) }

// Skolem interns the ground Skolem term f(args...) and returns its ID.
// All argument terms must be ground (constants or Skolem terms).
func (s *Store) Skolem(f FunctorID, args []ID) ID {
	if want := s.FunctorArity(f); len(args) != want {
		panic(fmt.Sprintf("term: functor %q applied to %d args, want %d", s.FunctorName(f), len(args), want))
	}
	return ID(s.skolems.Intern(&s.mu, HashIDs(int32(f), args), func(id int32) bool {
		r := s.data(ID(id))
		return r.fn == f && slices.Equal(s.args.Get(r.at, int(r.n)), args)
	}, func() int32 {
		depth := int32(1) // nullary Skolem terms still sit above the constants
		for _, a := range args {
			r := s.data(a)
			if r.kind == Var {
				panic("term: Skolem term with variable argument")
			}
			depth = max(depth, r.depth+1)
		}
		at, b := s.args.Alloc(len(args))
		copy(b, args)
		return int32(s.terms.Push(rec{kind: Skolem, fn: f, depth: depth, n: int32(len(args)), at: at}))
	}))
}

// Kind returns the kind of t.
func (s *Store) Kind(t ID) Kind { return s.data(t).kind }

// IsGround reports whether t contains no variables. Constants and Skolem
// terms are always ground (Skolem arguments are ground by construction).
func (s *Store) IsGround(t ID) bool { return s.data(t).kind != Var }

// Name returns the name of a constant or variable, or "" for Skolem terms.
func (s *Store) Name(t ID) string {
	if r := s.data(t); r.kind != Skolem {
		return s.name(r)
	}
	return ""
}

// SkolemFunctor returns the functor of a Skolem term, or -1 otherwise.
func (s *Store) SkolemFunctor(t ID) FunctorID { return s.data(t).fn }

// SkolemArgs returns the argument slice of a Skolem term (do not mutate),
// or nil otherwise.
func (s *Store) SkolemArgs(t ID) []ID {
	if r := s.data(t); r.kind == Skolem {
		return s.args.Get(r.at, int(r.n))
	}
	return nil
}

// Depth returns the Skolem-nesting depth of t: 0 for constants and
// variables, 1+max(arg depths) for Skolem terms.
func (s *Store) Depth(t ID) int { return int(s.data(t).depth) }

// Compare orders two ground terms per §2.1: a lexicographic order on
// ∆ ∪ ∆N in which every labelled null follows all constants. Constants are
// ordered by name; Skolem terms by functor name, then recursively by
// arguments. Compare returns -1, 0, or +1.
func (s *Store) Compare(a, b ID) int {
	if a == b {
		return 0
	}
	ta, tb := s.data(a), s.data(b)
	if ta.kind != tb.kind {
		// Constants precede Skolem terms (nulls follow all of ∆).
		if ta.kind == Const {
			return -1
		}
		return 1
	}
	switch ta.kind {
	case Const, Var:
		return strings.Compare(s.name(ta), s.name(tb))
	default: // Skolem
		fa, fb := s.FunctorName(ta.fn), s.FunctorName(tb.fn)
		if c := strings.Compare(fa, fb); c != 0 {
			return c
		}
		if c := ta.n - tb.n; c != 0 {
			if c < 0 {
				return -1
			}
			return 1
		}
		aa, ba := s.SkolemArgs(a), s.SkolemArgs(b)
		for i := range aa {
			if c := s.Compare(aa[i], ba[i]); c != 0 {
				return c
			}
		}
		return 0
	}
}

// Sort sorts a slice of ground term IDs in the §2.1 order.
func (s *Store) Sort(ts []ID) {
	sort.Slice(ts, func(i, j int) bool { return s.Compare(ts[i], ts[j]) < 0 })
}

// String renders a term. Constants and variables print their name; Skolem
// terms print functor(args...).
func (s *Store) String(t ID) string {
	td := s.data(t)
	switch td.kind {
	case Const, Var:
		return s.name(td)
	default:
		var b strings.Builder
		b.WriteString(s.FunctorName(td.fn))
		b.WriteByte('(')
		for i, a := range s.SkolemArgs(t) {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(s.String(a))
		}
		b.WriteByte(')')
		return b.String()
	}
}
