package program

import (
	"fmt"

	"repro/internal/atom"
	"repro/internal/parser"
	"repro/internal/term"
)

// Compile translates a parsed unit into a compiled program and database.
// Facts become database atoms; everything else is validated (guardedness,
// safety) and Skolemized. Facts intern interleaved with the rules, in
// source order, so every ID is the one a rule-by-rule compile of the
// source would assign. The returned queries correspond to the unit's '?'
// statements in order.
func Compile(unit *parser.Unit, st *atom.Store) (*Program, Database, []*Query, error) {
	st.Grow(len(unit.Facts))
	db := make(Database, 0, len(unit.Facts))
	prog, queries, err := compileUnit(unit, st, func(f parser.Fact) error {
		a, err := st.Fact(f.Pred, f.Args)
		if err == nil {
			db = append(db, a)
		}
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, db, queries, nil
}

// CompileSchema is Compile for a unit whose database comes from elsewhere
// (a checkpoint): each fact interns only its predicate, at its place in
// the source, so predicate IDs and arity errors are those of Compile, and
// no fact constant or atom is interned.
func CompileSchema(unit *parser.Unit, st *atom.Store) (*Program, []*Query, error) {
	return compileUnit(unit, st, func(f parser.Fact) error {
		_, err := st.Pred(f.Pred, len(f.Args))
		return err
	})
}

// compileUnit compiles the unit's rules and queries, calling fact for each
// fact at its place among the rules.
func compileUnit(unit *parser.Unit, st *atom.Store, fact func(parser.Fact) error) (*Program, []*Query, error) {
	prog := &Program{Store: st}
	err := unit.Walk(func(r *parser.Rule) error { return compileClause(prog, r, st) }, func(f parser.Fact) error {
		if err := fact(f); err != nil {
			return &ClauseError{Line: f.Line, Clause: parser.FormatFact(f), Err: err}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var queries []*Query
	for _, q := range unit.Queries {
		cq, err := CompileQuery(q, st)
		if err != nil {
			return nil, nil, err
		}
		queries = append(queries, cq)
	}
	prog.indexGuards()
	return prog, queries, nil
}

// CompileText parses and compiles src in one step.
func CompileText(src string, st *atom.Store) (*Program, Database, []*Query, error) {
	unit, err := parser.Parse(src)
	if err != nil {
		return nil, nil, nil, err
	}
	return Compile(unit, st)
}

// varEnv assigns dense slots to variable names in appearance order.
type varEnv struct {
	slots map[string]int
	names []string
}

func newVarEnv() *varEnv { return &varEnv{slots: make(map[string]int)} }

func (e *varEnv) slot(name string) int {
	if s, ok := e.slots[name]; ok {
		return s
	}
	s := len(e.names)
	e.slots[name] = s
	e.names = append(e.names, name)
	return s
}

func (e *varEnv) has(name string) bool {
	_, ok := e.slots[name]
	return ok
}

// names resolves the predicate and constant names of a clause to IDs.
type names interface {
	pred(name string, arity int) (atom.PredID, error)
	constant(name string) term.ID
}

// interner resolves names by interning them: compiling a program.
type interner struct{ st *atom.Store }

func (n interner) pred(name string, arity int) (atom.PredID, error) { return n.st.Pred(name, arity) }
func (n interner) constant(name string) term.ID                     { return n.st.Terms.Const(name) }

// lookup resolves names without interning: compiling a query for a read.
// A name the store does not know gets a negative placeholder ID, the same
// for every use within the query, which no atom of the store can carry.
type lookup struct {
	st     *atom.Store
	preds  map[string]unknownPred
	consts map[string]term.ID
}

type unknownPred struct {
	id    atom.PredID
	arity int
}

func (n *lookup) pred(name string, arity int) (atom.PredID, error) {
	if p, ok, err := n.st.ResolvePred(name, arity); ok {
		return p, err
	}
	u, ok := n.preds[name]
	if !ok {
		if n.preds == nil {
			n.preds = make(map[string]unknownPred)
		}
		u = unknownPred{atom.PredID(-1 - len(n.preds)), arity}
		n.preds[name] = u
	}
	if u.arity != arity {
		return 0, atom.ArityError(name, arity, u.arity)
	}
	return u.id, nil
}

func (n *lookup) constant(name string) term.ID {
	if t, ok := n.st.Terms.LookupConst(name); ok {
		return t
	}
	t, ok := n.consts[name]
	if !ok {
		if n.consts == nil {
			n.consts = make(map[string]term.ID)
		}
		t = term.ID(-2 - len(n.consts)) // below term.None
		n.consts[name] = t
	}
	return t
}

// unknown reports whether a pattern compiled by lookup holds a placeholder.
func unknown(p atom.Pattern) bool {
	if p.Pred < 0 {
		return true
	}
	for _, a := range p.Args {
		if !a.IsVar() && a.Const < 0 {
			return true
		}
	}
	return false
}

func compilePattern(a parser.Atom, env *varEnv, n names) (atom.Pattern, error) {
	p, err := n.pred(a.Pred, len(a.Args))
	if err != nil {
		return atom.Pattern{}, err
	}
	args := make([]atom.PArg, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar {
			args[i] = atom.VarArg(env.slot(t.Name))
		} else {
			args[i] = atom.ConstArg(n.constant(t.Name))
		}
	}
	return atom.Pattern{Pred: p, Args: args}, nil
}

// compileBody compiles body literals, returning positive and negative
// patterns. All body variables receive slots in appearance order.
// Equality literals are only legal in queries, not rule bodies.
func compileBody(body []parser.Literal, env *varEnv, st *atom.Store) (pos, neg []atom.Pattern, err error) {
	n := interner{st}
	for _, l := range body {
		if l.IsEq {
			return nil, nil, fmt.Errorf("equality literals are only allowed in queries")
		}
		pat, err := compilePattern(l.Atom, env, n)
		if err != nil {
			return nil, nil, err
		}
		if l.Negated {
			neg = append(neg, pat)
		} else {
			pos = append(pos, pat)
		}
	}
	return pos, neg, nil
}

// findGuard returns the index of a positive body atom covering all
// universal variable slots 0..numUniv-1, or -1 if none exists.
func findGuard(pos []atom.Pattern, numUniv int) int {
	for i, p := range pos {
		covered := make([]bool, numUniv)
		n := 0
		for _, a := range p.Args {
			if a.IsVar() && int(a.Var) < numUniv && !covered[a.Var] {
				covered[a.Var] = true
				n++
			}
		}
		if n == numUniv {
			return i
		}
	}
	return -1
}

func compileClause(prog *Program, r *parser.Rule, st *atom.Store) error {
	wrap := func(err error) error {
		return &ClauseError{Line: r.Line, Clause: parser.FormatRule(r), Err: err}
	}
	if r.IsFact() {
		// The parser files ground facts under Unit.Facts: this one has a
		// variable.
		if _, err := st.Pred(r.Head[0].Pred, len(r.Head[0].Args)); err != nil {
			return wrap(err)
		}
		return wrap(ErrNonGroundFact)
	}
	env := newVarEnv()
	pos, neg, err := compileBody(r.Body, env, st)
	if err != nil {
		return wrap(err)
	}
	numUniv := len(env.names)

	switch r.Kind {
	case parser.KindConstraint:
		// Negative constraints are *checked* against the model via
		// conjunctive matching (§5 extension), not chased, so they need
		// no guard — their bodies are NBCQs.
		if len(r.Body) == 0 {
			return wrap(ErrEmptyBody)
		}
		if len(pos) == 0 {
			return wrap(ErrNotGuarded) // need at least one positive atom for range restriction
		}
		prog.Constraints = append(prog.Constraints, &Constraint{
			Label:   parser.FormatRule(r),
			PosBody: pos,
			NegBody: neg,
			Guard:   0,
			NumVars: numUniv,
		})
		return nil

	case parser.KindEGD:
		// EGDs are likewise checked, not chased (the separability regime
		// of Calì et al.); their bodies are CQs and need no guard.
		if len(r.Body) == 0 {
			return wrap(ErrEmptyBody)
		}
		if len(neg) > 0 {
			return wrap(fmt.Errorf("EGD bodies must be positive"))
		}
		g := 0
		toArg := func(t parser.Term) (atom.PArg, error) {
			if t.IsVar {
				if !env.has(t.Name) {
					return atom.PArg{}, ErrEGDHead
				}
				return atom.VarArg(env.slot(t.Name)), nil
			}
			return atom.ConstArg(st.Terms.Const(t.Name)), nil
		}
		l, err := toArg(r.EqLeft)
		if err != nil {
			return wrap(err)
		}
		rt, err := toArg(r.EqRight)
		if err != nil {
			return wrap(err)
		}
		if !l.IsVar() && !rt.IsVar() {
			return wrap(ErrEGDHead)
		}
		prog.EGDs = append(prog.EGDs, &EGD{
			Label:   parser.FormatRule(r),
			PosBody: pos,
			Guard:   g,
			NumVars: numUniv,
			Left:    l,
			Right:   rt,
		})
		return nil
	}

	// Normal TGD. Multi-atom heads are normalized through an auxiliary
	// predicate: body -> ∃Z aux(U,Z);  aux(U,Z) -> A_i.
	heads := r.Head
	if len(heads) > 1 {
		return compileMultiHead(prog, r, st, env, pos, neg, numUniv)
	}
	head, err := compilePattern(heads[0], env, interner{st})
	if err != nil {
		return wrap(err)
	}
	return addRule(prog, st, r.Line, parser.FormatRule(r), env, pos, neg, numUniv, head, wrap)
}

// addRule performs guard selection and Skolemization of head slots beyond
// numUniv, then appends the rule.
func addRule(prog *Program, st *atom.Store, line int, label string, env *varEnv,
	pos, neg []atom.Pattern, numUniv int, head atom.Pattern, wrap func(error) error) error {
	g := findGuard(pos, numUniv)
	if g < 0 {
		return wrap(ErrNotGuarded)
	}
	idx := len(prog.Rules)
	univ := make([]int, numUniv)
	for i := range univ {
		univ[i] = i
	}
	var exist []ExistVar
	seen := make(map[int]bool)
	for _, a := range head.Args {
		if a.IsVar() && int(a.Var) >= numUniv && !seen[int(a.Var)] {
			seen[int(a.Var)] = true
			fn := st.Terms.Functor(fmt.Sprintf("sk%d_%s", idx, env.names[a.Var]), numUniv)
			exist = append(exist, ExistVar{Slot: int(a.Var), Fn: fn})
		}
	}
	// Move the guard to position 0 so chase code can rely on it.
	if g != 0 {
		pos[0], pos[g] = pos[g], pos[0]
		g = 0
	}
	prog.Rules = append(prog.Rules, &Rule{
		Idx:      idx,
		Line:     line,
		Label:    label,
		Head:     head,
		PosBody:  pos,
		NegBody:  neg,
		Guard:    g,
		NumVars:  len(env.names),
		VarNames: append([]string(nil), env.names...),
		Exist:    exist,
		Univ:     univ,
	})
	return nil
}

func compileMultiHead(prog *Program, r *parser.Rule, st *atom.Store, env *varEnv,
	pos, neg []atom.Pattern, numUniv int) error {
	wrap := func(err error) error {
		return &ClauseError{Line: r.Line, Clause: parser.FormatRule(r), Err: err}
	}
	// Head variables: universal ones (already in env) keep their slots;
	// fresh ones are existential.
	headPats := make([]atom.Pattern, len(r.Head))
	for i, h := range r.Head {
		p, err := compilePattern(h, env, interner{st})
		if err != nil {
			return wrap(err)
		}
		headPats[i] = p
	}
	// Universal head slots = slots < numUniv used in any head atom.
	usedUniv := make(map[int]bool)
	existSlots := make(map[int]bool)
	for _, hp := range headPats {
		for _, a := range hp.Args {
			if !a.IsVar() {
				continue
			}
			if int(a.Var) < numUniv {
				usedUniv[int(a.Var)] = true
			} else {
				existSlots[int(a.Var)] = true
			}
		}
	}
	var auxArgs []atom.PArg
	for s := 0; s < len(env.names); s++ {
		if usedUniv[s] || existSlots[s] {
			auxArgs = append(auxArgs, atom.VarArg(s))
		}
	}
	auxName := fmt.Sprintf("aux_h%d", len(prog.Rules))
	auxPred, err := st.Pred(auxName, len(auxArgs))
	if err != nil {
		return wrap(err)
	}
	auxHead := atom.Pattern{Pred: auxPred, Args: auxArgs}
	label := parser.FormatRule(r)
	if err := addRule(prog, st, r.Line, label+"  % [head-normalized: "+auxName+"]",
		env, pos, neg, numUniv, auxHead, wrap); err != nil {
		return err
	}
	// aux(U,Z) -> A_i : all aux args are universal in these rules.
	for i, hp := range headPats {
		env2 := newVarEnv()
		remap := make(map[int]int)
		auxPat := atom.Pattern{Pred: auxPred, Args: make([]atom.PArg, len(auxArgs))}
		for j, a := range auxArgs {
			ns := env2.slot(env.names[a.Var])
			remap[int(a.Var)] = ns
			auxPat.Args[j] = atom.VarArg(ns)
		}
		h2 := atom.Pattern{Pred: hp.Pred, Args: make([]atom.PArg, len(hp.Args))}
		for j, a := range hp.Args {
			if a.IsVar() {
				ns, ok := remap[int(a.Var)]
				if !ok {
					return wrap(fmt.Errorf("internal: head var not in aux atom"))
				}
				h2.Args[j] = atom.VarArg(ns)
			} else {
				h2.Args[j] = a
			}
		}
		lbl := fmt.Sprintf("%s  %% [head-normalized %d/%d]", label, i+1, len(headPats))
		if err := addRule(prog, st, r.Line, lbl, env2, []atom.Pattern{auxPat}, nil, len(env2.names), h2, wrap); err != nil {
			return err
		}
	}
	return nil
}

// CompileQuery compiles a parsed NBCQ, enforcing safety: every variable
// occurring in a negative literal must also occur in a positive literal
// (or be bound through an equality to such a variable or to a constant).
// Equality literals (§2.1) are compiled away by unifying variable slots;
// contradictory constant equalities mark the query Unsat.
func CompileQuery(q *parser.Query, st *atom.Store) (*Query, error) {
	return compileQuery(q, interner{st})
}

// ResolveQuery is CompileQuery for a read: it looks names up in st and
// interns nothing. A predicate or constant st does not know is in no
// atom, so a positive literal naming one makes the query Unsat, and a
// negative one always holds (the matcher's lookup of its atom fails).
// resolved reports that every name was known; the query is then exactly
// CompileQuery's, and valid for as long as st lives.
func ResolveQuery(q *parser.Query, st *atom.Store) (cq *Query, resolved bool, err error) {
	n := &lookup{st: st}
	if cq, err = compileQuery(q, n); err != nil {
		return nil, false, err
	}
	for _, p := range cq.Pos {
		cq.Unsat = cq.Unsat || unknown(p)
	}
	return cq, n.preds == nil && n.consts == nil, nil
}

func compileQuery(q *parser.Query, n names) (*Query, error) {
	wrap := func(err error) error {
		return &ClauseError{Line: q.Line, Clause: parser.FormatQuery(q), Err: err}
	}
	env := newVarEnv()
	var pos, neg []atom.Pattern
	unsat := false

	// Compile positives first so their variables own the low slots.
	for _, l := range q.Literals {
		if l.IsEq || l.Negated {
			continue
		}
		pat, err := compilePattern(l.Atom, env, n)
		if err != nil {
			return nil, wrap(err)
		}
		pos = append(pos, pat)
	}
	positiveSlots := len(env.names)

	// Union-find over slots with optional constant binding per class.
	parent := make([]int, 0, len(env.names)+4)
	bound := make([]term.ID, 0, cap(parent))
	grow := func() {
		for len(parent) < len(env.names) {
			parent = append(parent, len(parent))
			bound = append(bound, term.None)
		}
	}
	grow()
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Keep the smaller root so positive-slot classes stay canonical.
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if bound[rb] != term.None {
			if bound[ra] != term.None && bound[ra] != bound[rb] {
				unsat = true
			}
			if bound[ra] == term.None {
				bound[ra] = bound[rb]
			}
		}
	}
	bindConst := func(slot int, c term.ID) {
		r := find(slot)
		if bound[r] != term.None && bound[r] != c {
			unsat = true
			return
		}
		bound[r] = c
	}

	for _, l := range q.Literals {
		if !l.IsEq {
			continue
		}
		lv, rv := l.EqLeft, l.EqRight
		switch {
		case lv.IsVar && rv.IsVar:
			s1, s2 := env.slot(lv.Name), env.slot(rv.Name)
			grow()
			union(s1, s2)
		case lv.IsVar:
			s := env.slot(lv.Name)
			grow()
			bindConst(s, n.constant(rv.Name))
		case rv.IsVar:
			s := env.slot(rv.Name)
			grow()
			bindConst(s, n.constant(lv.Name))
		default:
			if lv.Name != rv.Name {
				unsat = true // distinct constants never equal under UNA
			}
		}
	}

	// Negatives: every variable must resolve to a positive-literal slot
	// class or a constant-bound class.
	for _, l := range q.Literals {
		if l.IsEq || !l.Negated {
			continue
		}
		for _, t := range l.Atom.Args {
			if !t.IsVar {
				continue
			}
			if !env.has(t.Name) {
				return nil, wrap(fmt.Errorf("%w: %s", ErrUnsafeQuery, t.Name))
			}
			s := find(env.slot(t.Name))
			if s >= positiveSlots && bound[s] == term.None {
				return nil, wrap(fmt.Errorf("%w: %s", ErrUnsafeQuery, t.Name))
			}
		}
		pat, err := compilePattern(l.Atom, env, n)
		if err != nil {
			return nil, wrap(err)
		}
		grow()
		neg = append(neg, pat)
	}
	grow()

	// Every equality-only variable class must be constant-bound or reach
	// a positive slot (otherwise the query is unsafe: the variable ranges
	// over the whole universe).
	for s := positiveSlots; s < len(env.names); s++ {
		r := find(s)
		if r >= positiveSlots && bound[r] == term.None {
			return nil, wrap(fmt.Errorf("%w: %s", ErrUnsafeQuery, env.names[s]))
		}
	}

	// Rewrite patterns through the union-find and renumber compactly.
	remap := make([]int, len(env.names))
	for i := range remap {
		remap[i] = -1
	}
	var names []string
	rewrite := func(pats []atom.Pattern) {
		for pi := range pats {
			args := make([]atom.PArg, len(pats[pi].Args))
			for ai, a := range pats[pi].Args {
				if !a.IsVar() {
					args[ai] = a
					continue
				}
				r := find(int(a.Var))
				if c := bound[r]; c != term.None {
					args[ai] = atom.ConstArg(c)
					continue
				}
				if remap[r] < 0 {
					remap[r] = len(names)
					names = append(names, env.names[r])
				}
				args[ai] = atom.VarArg(remap[r])
			}
			pats[pi].Args = args
		}
	}
	rewrite(pos)
	rewrite(neg)

	return &Query{
		Label:    parser.FormatQuery(q),
		Pos:      pos,
		Neg:      neg,
		NumVars:  len(names),
		VarNames: names,
		Unsat:    unsat,
	}, nil
}

// ParseQuery parses and compiles a single NBCQ.
func ParseQuery(src string, st *atom.Store) (*Query, error) {
	pq, err := parser.ParseQueryString(src)
	if err != nil {
		return nil, err
	}
	return CompileQuery(pq, st)
}
