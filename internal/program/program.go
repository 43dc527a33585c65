// Package program implements guarded normal Datalog± programs: normal
// tuple-generating dependencies (NTGDs, §2.4), their validation
// (guardedness, safety), the functional transformation Σ → Σf that
// Skolemizes existential head variables (§2.4), negative constraints and
// EGDs (the future-work extensions of §5), query compilation (§2.3), and
// stratification analysis used by the stratified baseline.
package program

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/atom"
	"repro/internal/term"
)

// Validation errors reported by Compile, wrapped in *ClauseError.
var (
	// ErrNotGuarded: a rule body has no positive atom containing all
	// universally quantified variables of the rule.
	ErrNotGuarded = errors.New("rule is not guarded")
	// ErrNonGroundFact: a fact contains variables.
	ErrNonGroundFact = errors.New("fact is not ground")
	// ErrUnsafeQuery: a query variable occurs only in negative literals.
	ErrUnsafeQuery = errors.New("query variable occurs only under negation")
	// ErrEmptyBody: a non-fact clause (constraint/EGD) has an empty body.
	ErrEmptyBody = errors.New("clause body is empty")
	// ErrEGDHead: an EGD equates two constants or uses a head variable
	// that does not occur in the body.
	ErrEGDHead = errors.New("invalid EGD head")
)

// ClauseError attaches clause position and text to a validation error.
type ClauseError struct {
	Line   int
	Clause string
	Err    error
}

func (e *ClauseError) Error() string {
	return fmt.Sprintf("line %d: %v: %s", e.Line, e.Err, e.Clause)
}

func (e *ClauseError) Unwrap() error { return e.Err }

// ExistVar records one Skolemized existential head variable: head slot and
// the Skolem functor f_{σ,Z} that fills it.
type ExistVar struct {
	Slot int
	Fn   term.FunctorID
}

// Rule is a compiled normal TGD after the functional transformation: a
// single-atom head whose existential variables are replaced by Skolem
// functors over the rule's universal variables.
type Rule struct {
	Idx      int    // position within the program
	Line     int    // source line (1-based; 0 for synthesized rules)
	Label    string // pretty-printed source form
	Head     atom.Pattern
	PosBody  []atom.Pattern // guard first (Guard == 0 after compilation)
	NegBody  []atom.Pattern
	Guard    int // index into PosBody of the guard atom
	NumVars  int // variable slots (universal then existential)
	VarNames []string
	Exist    []ExistVar // existential head slots with their functors
	Univ     []int      // universal slots in Skolem-argument order
}

// IsFact reports whether the rule has an empty body.
func (r *Rule) IsFact() bool { return len(r.PosBody) == 0 && len(r.NegBody) == 0 }

// GuardAtom returns the guard pattern of the rule.
func (r *Rule) GuardAtom() atom.Pattern { return r.PosBody[r.Guard] }

// Constraint is a negative constraint body -> false (extension, §5).
type Constraint struct {
	Label   string
	PosBody []atom.Pattern
	NegBody []atom.Pattern
	Guard   int
	NumVars int
}

// EGD is an equality-generating dependency body -> s = t (extension, §5).
// Under UNA, an EGD firing on two distinct constants is a hard violation;
// on a null it would require equating terms, which this reproduction
// reports as a violation as well (we implement EGD *checking*, i.e. the
// separability/non-conflicting regime of Calì et al., not null unification).
type EGD struct {
	Label   string
	PosBody []atom.Pattern
	Guard   int
	NumVars int
	Left    atom.PArg
	Right   atom.PArg
}

// Query is a compiled NBCQ (§2.3): positive and negative atom patterns
// over shared variable slots. Equalities from the surface query (§2.1)
// are compiled away by unifying slots; an equality between distinct
// constants makes the query unsatisfiable (Unsat).
type Query struct {
	Label    string
	Pos      []atom.Pattern
	Neg      []atom.Pattern
	NumVars  int
	VarNames []string
	// Unsat marks a query whose equalities are contradictory under UNA
	// (e.g. ? p(X), X = a, X = b). Such a query is False outright.
	Unsat bool
}

// Program is a compiled guarded normal Datalog± program Σf together with
// its extensions.
type Program struct {
	Store       *atom.Store
	Rules       []*Rule
	Constraints []*Constraint
	EGDs        []*EGD

	byGuardPred map[atom.PredID][]*Rule
}

// Database is a set of ground atoms (a database instance for the schema).
type Database []atom.AtomID

// RulesGuardedBy returns the rules whose guard predicate is p.
func (p *Program) RulesGuardedBy(pred atom.PredID) []*Rule { return p.byGuardPred[pred] }

// IsPositive reports whether no rule has negative body atoms (the program
// is a guarded Datalog± program without negation).
func (p *Program) IsPositive() bool {
	for _, r := range p.Rules {
		if len(r.NegBody) > 0 {
			return false
		}
	}
	return true
}

// IsLinear reports whether every rule has exactly one positive body atom
// (the linear Datalog± fragment of [1], a subfragment of guarded with
// lower combined complexity). Negative body atoms are permitted.
func (p *Program) IsLinear() bool {
	for _, r := range p.Rules {
		if len(r.PosBody) != 1 {
			return false
		}
	}
	return true
}

// String lists the compiled rules in source-like form.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.Label)
		b.WriteByte('\n')
	}
	for _, c := range p.Constraints {
		b.WriteString(c.Label)
		b.WriteByte('\n')
	}
	for _, e := range p.EGDs {
		b.WriteString(e.Label)
		b.WriteByte('\n')
	}
	return b.String()
}

// IndexGuards (re)builds the guard-predicate index. Callers constructing
// or restricting programs outside Compile must call it before the chase.
func (p *Program) IndexGuards() { p.indexGuards() }

func (p *Program) indexGuards() {
	p.byGuardPred = make(map[atom.PredID][]*Rule)
	for _, r := range p.Rules {
		if r.IsFact() {
			continue
		}
		g := r.GuardAtom().Pred
		p.byGuardPred[g] = append(p.byGuardPred[g], r)
	}
}

// InstantiateHead interns the ground head atom of r under sub, creating
// Skolem terms for the existential slots. The universal slots referenced
// by r.Univ must all be bound. The substitution is extended with the
// created Skolem terms (callers backtracking over guard matches must undo
// existential slots as well; chase code uses a fresh trail mark).
func (p *Program) InstantiateHead(r *Rule, sub atom.Subst, trail *[]int32) atom.AtomID {
	if len(r.Exist) > 0 {
		skArgs := make([]term.ID, len(r.Univ))
		for i, s := range r.Univ {
			skArgs[i] = sub[s]
		}
		for _, ev := range r.Exist {
			sub[ev.Slot] = p.Store.Terms.Skolem(ev.Fn, skArgs)
			*trail = append(*trail, int32(ev.Slot))
		}
	}
	return p.Store.Instantiate(r.Head, sub)
}
