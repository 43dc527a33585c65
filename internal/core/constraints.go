package core

import (
	"fmt"
	"strings"

	"repro/internal/atom"
	"repro/internal/term"
)

// Violation reports a negative-constraint or EGD violation found in the
// model (the §5 future-work extensions: negative constraints and EGDs à
// la Calì et al. [1]).
type Violation struct {
	// Kind is "constraint" or "egd".
	Kind string
	// Clause is the violated clause's source form.
	Clause string
	// Certain distinguishes violations witnessed by true atoms from
	// possible violations witnessed through undefined atoms.
	Certain bool
	// Witness renders the violating homomorphism.
	Witness string
}

func (v Violation) String() string {
	mode := "possible"
	if v.Certain {
		mode = "certain"
	}
	return fmt.Sprintf("%s %s violation of %q with %s", mode, v.Kind, v.Clause, v.Witness)
}

// CheckConstraints evaluates every negative constraint and EGD of the
// program against the model and returns all violations. Negative
// constraints body -> false are violated by any homomorphism making the
// body true; EGDs body -> s = t are violated (under UNA) by any
// homomorphism making the body true with µ(s) ≠ µ(t), since distinct
// constants never unify and labelled nulls are distinct Skolem terms.
func (m *Model) CheckConstraints() []Violation {
	var out []Violation
	prog := m.Chase.Prog
	st := prog.Store
	for _, c := range prog.Constraints {
		for _, strict := range []bool{true, false} {
			strict := strict
			var found *Violation
			m.findHom(c.PosBody, c.NegBody, c.NumVars, strict, nil, func(sub atom.Subst) bool {
				found = &Violation{
					Kind:    "constraint",
					Clause:  c.Label,
					Certain: strict,
					Witness: renderSubst(m, sub),
				}
				return false
			})
			if found != nil {
				out = append(out, *found)
				break // a certain violation subsumes the possible one
			}
		}
	}
	for _, e := range prog.EGDs {
		var found *Violation
		m.findHom(e.PosBody, nil, e.NumVars, true, nil, func(sub atom.Subst) bool {
			l := argValue(e.Left, sub)
			r := argValue(e.Right, sub)
			if l != r {
				found = &Violation{
					Kind:    "egd",
					Clause:  e.Label,
					Certain: true,
					Witness: fmt.Sprintf("%s ≠ %s", st.Terms.String(l), st.Terms.String(r)),
				}
				return false
			}
			return true
		})
		if found != nil {
			out = append(out, *found)
		}
	}
	return out
}

// argValue is the term a denotes under sub: term.None for an unbound
// variable.
func argValue(a atom.PArg, sub atom.Subst) term.ID {
	if a.IsVar() {
		return sub[a.Var]
	}
	return a.Const
}

func renderSubst(m *Model, sub atom.Subst) string {
	st := m.Chase.Prog.Store
	var parts []string
	for i, t := range sub {
		if t != term.None {
			parts = append(parts, fmt.Sprintf("?%d=%s", i, st.Terms.String(t)))
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Consistent reports whether the model violates no constraint certainly.
func (m *Model) Consistent() bool {
	for _, v := range m.CheckConstraints() {
		if v.Certain {
			return false
		}
	}
	return true
}
