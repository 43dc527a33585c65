package atom

import (
	"fmt"
	"strings"

	"repro/internal/term"
)

// PArg is one argument position of a pattern: either a constant term or a
// variable slot. Rules and queries rename their variables to dense slot
// indexes at compile time, so a substitution is a flat slice.
type PArg struct {
	Var   int32 // variable slot index, or -1 for a constant
	Const term.ID
}

// IsVar reports whether the argument is a variable slot.
func (a PArg) IsVar() bool { return a.Var >= 0 }

// VarArg returns a PArg referring to variable slot v.
func VarArg(v int) PArg { return PArg{Var: int32(v), Const: term.None} }

// ConstArg returns a PArg holding the ground term t.
func ConstArg(t term.ID) PArg { return PArg{Var: -1, Const: t} }

// Pattern is an atom with variables: the body and head atoms of compiled
// rules and queries.
type Pattern struct {
	Pred PredID
	Args []PArg
}

// Vars returns the set of variable slots occurring in the pattern, in
// first-occurrence order.
func (p Pattern) Vars() []int {
	var out []int
	for _, a := range p.Args {
		if !a.IsVar() {
			continue
		}
		seen := false
		for _, v := range out {
			if v == int(a.Var) {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, int(a.Var))
		}
	}
	return out
}

// Subst is a substitution over variable slots; unbound slots hold term.None.
type Subst []term.ID

// NewSubst returns a fresh substitution with n unbound slots.
func NewSubst(n int) Subst {
	s := make(Subst, n)
	for i := range s {
		s[i] = term.None
	}
	return s
}

// Reset unbinds every slot.
func (s Subst) Reset() {
	for i := range s {
		s[i] = term.None
	}
}

// Match attempts to match pattern p against the ground atom a under the
// current substitution, binding unbound slots as needed. Newly bound slots
// are appended to *trail so the caller can backtrack via Undo. Match
// reports whether the match succeeded; on failure the substitution is
// already restored.
func (s *Store) Match(p Pattern, a AtomID, sub Subst, trail *[]int32) bool {
	if s.PredOf(a) != p.Pred {
		return false
	}
	args := s.Args(a)
	mark := len(*trail)
	for i, pa := range p.Args {
		if pa.IsVar() {
			if bound := sub[pa.Var]; bound == term.None {
				sub[pa.Var] = args[i]
				*trail = append(*trail, pa.Var)
			} else if bound != args[i] {
				Undo(sub, trail, mark)
				return false
			}
		} else if pa.Const != args[i] {
			Undo(sub, trail, mark)
			return false
		}
	}
	return true
}

// Undo unbinds every slot recorded in (*trail)[mark:] and truncates the
// trail back to mark.
func Undo(sub Subst, trail *[]int32, mark int) {
	for _, v := range (*trail)[mark:] {
		sub[v] = term.None
	}
	*trail = (*trail)[:mark]
}

// Instantiate interns the ground atom obtained by applying sub to p. All
// variable slots of p must be bound.
func (s *Store) Instantiate(p Pattern, sub Subst) AtomID {
	var buf [8]term.ID
	return s.Atom(p.Pred, s.ground(p, sub, buf[:0]))
}

// InstantiateLookup is Instantiate without interning: it returns the
// existing AtomID for the instantiated atom, or (NoAtom, false) if that
// ground atom has never been interned. Used for side-atom membership
// checks and ground query literals; patterns of arity up to 8 allocate
// nothing.
func (s *Store) InstantiateLookup(p Pattern, sub Subst) (AtomID, bool) {
	var buf [8]term.ID
	return s.Lookup(p.Pred, s.ground(p, sub, buf[:0]))
}

// ground appends the arguments of p under sub to args.
func (s *Store) ground(p Pattern, sub Subst, args []term.ID) []term.ID {
	for _, pa := range p.Args {
		t := pa.Const
		if pa.IsVar() {
			if t = sub[pa.Var]; t == term.None {
				panic(fmt.Sprintf("atom: instantiating %s with unbound slot %d", s.PatternString(p), pa.Var))
			}
		}
		args = append(args, t)
	}
	return args
}

// PatternString renders a pattern with ?n for variable slots (used in
// diagnostics; the parser-level printer renders original variable names).
func (s *Store) PatternString(p Pattern) string {
	var b strings.Builder
	b.WriteString(s.PredName(p.Pred))
	if len(p.Args) == 0 {
		return b.String()
	}
	b.WriteByte('(')
	for i, a := range p.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if a.IsVar() {
			fmt.Fprintf(&b, "?%d", a.Var)
		} else {
			b.WriteString(s.Terms.String(a.Const))
		}
	}
	b.WriteByte(')')
	return b.String()
}
