// Package core implements the paper's primary contribution: the standard
// well-founded semantics for guarded normal Datalog± under the unique name
// assumption (Definition 3), decidable NBCQ answering over it (§4), the
// goal-directed membership check WCHECK, and the Proposition 12 depth
// bound δ.
//
// The evaluation pipeline is: bounded guarded chase of P+ = (D ∪ Σf)+
// (package chase) → finite ground normal program (package ground) → the
// modular alternating-fixpoint WFS solve → three-valued model over the
// derived universe, with every atom outside the universe false (it has no
// forward proof within the bound, Definition 5). Proposition 12 guarantees
// a finite sufficient depth n·δ for NBCQ answering; because δ is
// astronomically large, the engine answers queries by adaptive deepening
// with a stabilization window, and reports exactness whenever the chase
// saturates below the bound (in which case the computed model is the
// genuine well-founded model restricted to the relevant atoms). The other
// WFS operators of the paper live in package ground as reference
// implementations the tests check this path against.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/chase"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
	"repro/internal/trace"
)

// ErrBudgetExceeded is the structured error answer-shaped paths return
// when the MaxAtoms safety valve truncated the chase: the answer cannot
// be computed under the configured budget. Introspection paths (Stats,
// TrueFacts, constraint checks) keep serving the truncated model — the
// partial universe is still a sound lower approximation — so the error
// is raised by the adaptive ladder, not by evaluation itself. The root
// wfs package re-exports the type; match with errors.As.
type ErrBudgetExceeded = chase.BudgetError

// budgetErr builds the structured budget error for a truncated chase.
func budgetErr(res *chase.Result) error {
	return &ErrBudgetExceeded{Atoms: len(res.Atoms), Limit: res.Opts.MaxAtoms}
}

// cancelCause converts a tripped token into the error surfaced to
// callers: context.DeadlineExceeded for deadlines, context.Canceled for
// disconnects/manual cancels (errors.Is-matchable either way).
func cancelCause(tok *cancel.Token) error {
	if err := tok.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// Options configure an Engine. The zero value selects defaults.
type Options struct {
	// Depth is the chase depth for Evaluate; 0 means DefaultDepth.
	Depth int
	// MaxAtoms caps the chase universe (safety valve); 0 means a large
	// default.
	MaxAtoms int

	// Parallelism bounds the worker pool of the modular (SCC-wise)
	// solver: independent dependency components on one topological level
	// are solved concurrently by up to this many goroutines. 0 (the
	// default) selects min(GOMAXPROCS, NumCPU); 1 solves strictly
	// sequentially. Values beyond the solver's hard cap (256) are clamped
	// — the field is reachable from untrusted session options, and worker
	// scratch is sized by it. ground.PoolSize resolves both.
	Parallelism int

	// Adaptive deepening (used by Answer): start depth, additive step,
	// number of consecutive agreeing depths required, and the depth
	// ceiling. Zero values select 4 / 2 / 2 / 24.
	AdaptiveStart   int
	AdaptiveStep    int
	StabilityWindow int
	MaxDepth        int

	// GuardBand keeps query matching away from the chase frontier: when
	// the chase did NOT saturate, homomorphisms may only use atoms of
	// depth ≤ depth−GuardBand, since atoms at the frontier can lack
	// children whose absence flips truth values (the locality issue that
	// Lemmas 10/11 handle; see DESIGN.md §2). Zero selects 2. Ignored
	// for exact (saturated) models.
	GuardBand int

	// CertifiedDepth, when positive, is a statically proven chase depth
	// bound for the loaded program (analysis.Certify): every derivable
	// atom has depth ≤ CertifiedDepth and the bounded chase run there is
	// complete. When the certified bound fits under the resolved MaxDepth
	// ceiling, withDefaults collapses the adaptive ladder to the single
	// certified rung (AdaptiveStart = MaxDepth = Depth = CertifiedDepth)
	// and models evaluated at that depth are exact — no guard band, no
	// deepening. A bound above MaxDepth leaves the heuristic schedule
	// untouched: MaxDepth stays a resource ceiling.
	CertifiedDepth int
	// NoCertify tells load paths to skip certification entirely (keep the
	// heuristic ladder even for provably bounded programs). Consumed by
	// wfs.LoadWithOptions; the engine itself only reads CertifiedDepth.
	NoCertify bool
}

// DefaultDepth is the chase depth used by Evaluate when unset.
const DefaultDepth = 8

// WithDefaults resolves zero-valued fields to their defaults. Callers that
// derive evaluation schedules from options (the snapshot layer's adaptive
// ladder) use it to see the same values an Engine would.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// Validate reports option combinations that cannot answer queries. The
// one way to build such a configuration is an adaptive-deepening schedule
// that is empty after defaults resolve — AdaptiveStart (explicit, or
// GuardBand+2 by default) above MaxDepth, e.g. Options{GuardBand: 30}
// with the default MaxDepth 24. Without this check the deepening loop
// never executes and every query silently answers False with an empty
// trace. Load-time callers (wfs.LoadWithOptions) and AdaptiveAnswer both
// check it.
func (o Options) Validate() error {
	r := o.withDefaults()
	if r.AdaptiveStart > r.MaxDepth {
		return fmt.Errorf(
			"core: empty adaptive-deepening schedule: resolved AdaptiveStart %d exceeds MaxDepth %d (GuardBand %d) — raise MaxDepth or lower AdaptiveStart/GuardBand",
			r.AdaptiveStart, r.MaxDepth, r.GuardBand)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = DefaultDepth
	}
	if o.MaxAtoms <= 0 {
		o.MaxAtoms = 4_000_000
	}
	o.Parallelism = ground.PoolSize(o.Parallelism)
	if o.GuardBand <= 0 {
		o.GuardBand = 2
	}
	if o.AdaptiveStart <= 0 {
		o.AdaptiveStart = o.GuardBand + 2
	}
	if o.AdaptiveStep <= 0 {
		o.AdaptiveStep = 2
	}
	if o.StabilityWindow <= 0 {
		o.StabilityWindow = 2
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 24
	}
	if o.CertifiedDepth > 0 && o.CertifiedDepth <= o.MaxDepth {
		// A certified bound within the resource ceiling collapses the
		// schedule to one exact rung; see Options.CertifiedDepth.
		o.AdaptiveStart = o.CertifiedDepth
		o.MaxDepth = o.CertifiedDepth
		o.Depth = o.CertifiedDepth
	}
	return o
}

// Engine evaluates the well-founded semantics of a database under a
// guarded normal Datalog± program. It caches its models per depth, and
// builds a depth it has not evaluated (Build) from the deepest cached
// model below it — a deepening of that model's chase, grounding and
// solve — so the adaptive-deepening ladder pays for each depth increment
// once. An Engine is single-goroutine (see wfs.Snapshot for the
// concurrent read path).
type Engine struct {
	Prog *program.Program
	DB   program.Database
	Opts Options

	models map[int]*Model // depth → model
}

// NewEngine creates an engine; opts zero-values select defaults.
func NewEngine(prog *program.Program, db program.Database, opts Options) *Engine {
	return &Engine{Prog: prog, DB: db, Opts: opts.withDefaults(), models: make(map[int]*Model)}
}

// Model is the (bounded) well-founded model WFS(D, Σ): a three-valued
// interpretation over the derived universe, with everything outside false.
type Model struct {
	Chase *chase.Result
	GP    *ground.Program
	GM    *ground.Model
	// Depth is the chase depth bound the model was evaluated at. Chase may
	// be bounded below it: a ladder rung past saturation shares the
	// shallower saturated chase.
	Depth int
	// Exact reports that the chase saturated strictly below its depth
	// bound without truncation, so this model is the true well-founded
	// model on all atoms (no deeper chase can change anything).
	Exact bool
	// UsableDepth bounds the atoms query matching may use (see
	// Options.GuardBand); negative when everything is usable.
	UsableDepth int
	// Interrupted reports that a cancellation token stopped the chase or
	// the solve mid-way: the model carries no other field, is never
	// cached and never answered from (the ladder converts it to the
	// token's cause as an error).
	Interrupted bool

	idxOnce sync.Once    // guards buildIndexes
	preds   []*predIndex // matcher candidates per predicate, by PredID
	// patch, until buildIndexes consumes it, names the model this one
	// was rebased from and the atoms whose candidacy may differ.
	patch *indexPatch

	ranksOnce sync.Once // guards PrepareExplanations (models may be shared across snapshots)
	ranks     []int32   // lazy: derivation ranks for Explain
	support   []int32   // lazy: supporting instance per true atom
}

// Evaluate computes (and caches) the model at the configured depth.
func (e *Engine) Evaluate() *Model { return e.EvaluateAtDepth(e.Opts.Depth) }

// EvaluateAtDepth computes (and caches) the model at an explicit chase
// depth, deepening the deepest model cached below it; a depth below every
// cached one (outside the usual monotone deepening pattern) is built
// cold.
func (e *Engine) EvaluateAtDepth(depth int) *Model {
	return e.EvaluateAtDepthCancelTraced(depth, nil, nil)
}

// EvaluateAtDepthCancelTraced is EvaluateAtDepth under a cancellation
// token (nil = never cancelled), with the build's phases recorded under
// tr (see Build); cache hits record nothing. An interrupted build is
// returned but never cached, so a later un-cancelled request at the same
// depth evaluates cleanly.
func (e *Engine) EvaluateAtDepthCancelTraced(depth int, tok *cancel.Token, tr *trace.Span) *Model {
	if m, ok := e.models[depth]; ok {
		return m
	}
	var prev *Model
	for d, m := range e.models {
		if d < depth && (prev == nil || d > prev.Depth) {
			prev = m
		}
	}
	m := Build(prev, e.Prog, e.Opts, depth, e.DB, tok, tr)
	if !m.Interrupted {
		e.models[depth] = m
	}
	return m
}

// Build is the one way a Model is made: the model of db under prog at
// chase depth depth, reached from prev, or from the empty model when prev
// is nil. The guarded chase forest is monotone in the database and in the
// depth (Lemmas 10/11: a deeper cut extends a shallower one), so a cold
// build is a write to the empty forest and a ladder rung is a write that
// only raises the depth cap. Build runs one chase continuation
// (chase.Result.Apply) for the set-level change from prev's database to
// db and the rise of the cap, one view that regrounds it (ground.View),
// and one solve warm-started from prev's truths, which re-solves only the
// dependency cone of the Change's seeds (ground.IncrementalModel; with no
// previous model it is the full modular solve). A model built from prev
// derives its matcher lists from prev's when the cone allows it.
//
// When db equals prev's database at the set level and depth is prev's
// depth, Build returns prev. A prev whose chase is deeper than depth, or
// truncated while db differs from its database, cannot be continued and
// is ignored: the build is cold. prog must share prev's compiled rules
// and store, and every atom of db must be interned there. prev is not
// mutated and keeps serving concurrent readers.
//
// tok (nil = never cancelled) gates every stage; a cancelled build
// returns a Model with only Interrupted set, to be thrown away. tr
// records the phases (nil records nothing): a cold build's chase, ground,
// condense and solve; a deepening's diff, chase-extend and reground; a
// write's diff and delta-rebase span, with the continuation's chase and
// reground and the delta sizes as counters; and a warm build's warm-solve
// span with its cone sizes.
func Build(prev *Model, prog *program.Program, opts Options, depth int, db program.Database, tok *cancel.Token, tr *trace.Span) *Model {
	opts = opts.withDefaults()
	var added, removed []atom.AtomID
	if prev != nil {
		endDiff := tr.Phase("diff")
		added, removed = chase.Diff(prev.Chase.DB, db)
		endDiff()
		if len(added) == 0 && len(removed) == 0 && depth == prev.Depth {
			return prev
		}
		// A deeper chase cannot be cut back, and a truncated one cannot
		// take a write (MaxAtoms left its frontier unexpanded): both are
		// rebuilt cold. A truncated chase with no write stays as it is:
		// a deeper chase of the same database truncates too.
		if prev.Chase.Opts.MaxDepth > depth || prev.Chase.Truncated && (len(added) > 0 || len(removed) > 0) {
			prev = nil
		}
	}
	var (
		from            *chase.Result
		prevGP          *ground.Program
		prevGM          *ground.Model
		rb              *trace.Span // a write's delta-rebase span
		stage           = tr        // where the chase and the grounding are recorded
		chaseN, groundN = "chase", "ground"
	)
	if prev == nil {
		from = chase.Empty(prog, chase.Options{MaxDepth: depth, MaxAtoms: opts.MaxAtoms}, len(db))
		added = db
	} else {
		from, prevGP, prevGM = prev.Chase, prev.GP, prev.GM
		chaseN, groundN = "chase-extend", "reground"
		if len(added) > 0 || len(removed) > 0 {
			rb, chaseN = tr.Child("delta-rebase"), "chase"
			stage = rb
			rb.SetCount("added_facts", int64(len(added)))
			rb.SetCount("removed_facts", int64(len(removed)))
		}
	}
	cs := stage.Child(chaseN)
	res, ch := from.Apply(prog, db, removed, added, depth, tok)
	chaseCounters(cs, res)
	cs.End()
	if res.Interrupted {
		rb.End()
		return &Model{Interrupted: true}
	}
	if len(removed) > 0 {
		rb.SetCount("dead_instances", int64(len(ch.Dead)))
		rb.SetCount("overdeleted_atoms", int64(ch.Overdeleted))
		rb.SetCount("rederived_atoms", int64(ch.Rederived))
		compacted := int64(0)
		if ch.Compacted {
			compacted = 1
		}
		rb.SetCount("compacted", compacted)
	}
	if len(added) > 0 {
		rb.SetCount("new_instances", int64(ch.NewInstances))
	}
	endG := stage.Phase(groundN)
	gp := ground.View(prevGP, res, ch.Remap)
	endG()
	rb.End()
	// The solve is the modular SCC-wise evaluation: the alternating
	// fixpoint inside each negation-cyclic component, and up to
	// opts.Parallelism independent components at once. Cold, it records
	// its condense and solve phases on tr; warm, the cone's sizes go on a
	// warm-solve span, which times the cone's solve or the fallback to the
	// full solve.
	var ws *trace.Span
	solveTr := tr
	if prev != nil {
		ws, solveTr = tr.Child("warm-solve"), nil
	}
	solve := func(p *ground.Program) *ground.Model {
		return ground.SolveModularCancelTraced(p, ground.AlternatingFixpoint, opts.Parallelism, tok, solveTr)
	}
	gm := ground.IncrementalModelCancelTraced(gp, prevGM, ch.Seeds, solve, tok, ws)
	ws.End()
	if gm.Interrupted {
		return &Model{Interrupted: true}
	}
	m := wrapModel(opts, res, gp, gm, depth)
	if prev != nil {
		m.patch = newIndexPatch(prev, m, gm.Cone)
	}
	return m
}

// chaseCounters records a finished chase's shape on its span: universe
// size, fired instances, parked (unfirable) rule applications, and the
// deepest derived atom; a Detailed trace additionally gets the full
// per-depth frontier profile as counters on a frontier child.
func chaseCounters(tr *trace.Span, res *chase.Result) {
	if !tr.Enabled() {
		return
	}
	cs := res.ComputeStats()
	tr.SetCount("chase_atoms", int64(cs.Atoms))
	tr.SetCount("chase_instances", int64(cs.Instances))
	tr.SetCount("parked_waiters", int64(res.ParkedWaiters()))
	tr.SetCount("max_depth", int64(cs.MaxDepth))
	if tr.Detailed() {
		f := tr.Child("frontier")
		for d, n := range res.DepthProfile() {
			f.SetCount("depth_"+strconv.Itoa(d), int64(n))
		}
		f.End()
	}
}

// RebaseModel is Build without a cancellation token or a trace: prev
// carried onto the database newDB at depth.
func RebaseModel(prev *Model, prog *program.Program, opts Options, depth int, newDB program.Database) *Model {
	return Build(prev, prog, opts, depth, newDB, nil, nil)
}

// wrapModel attaches exactness and guard-band metadata to an evaluated
// ground model.
func wrapModel(opts Options, res *chase.Result, gp *ground.Program, gm *ground.Model, depth int) *Model {
	stats := res.ComputeStats()
	// Exact when the chase visibly saturated below the cap, or when a
	// static certificate proves depth is a true bound (the chase may then
	// derive atoms at exactly the bound, but nothing beyond exists).
	certified := opts.CertifiedDepth > 0 && depth >= opts.CertifiedDepth
	m := &Model{
		Chase: res,
		GP:    gp,
		GM:    gm,
		Depth: depth,
		Exact: !res.Truncated && (stats.MaxDepth < depth || certified),
	}
	if m.Exact {
		m.UsableDepth = -1
	} else {
		m.UsableDepth = depth - opts.GuardBand
	}
	return m
}

// Truth returns the three-valued truth of a ground atom in the model;
// atoms outside the derived universe are false.
func (m *Model) Truth(a atom.AtomID) ground.Truth { return m.GM.TruthOfGlobal(a) }

// TrueAtoms returns all true atoms, in derivation order.
func (m *Model) TrueAtoms() []atom.AtomID {
	var out []atom.AtomID
	for i, g := range m.GP.Atoms {
		if m.GM.Truth[i] == ground.True {
			out = append(out, g)
		}
	}
	return out
}

// UndefinedAtoms returns all undefined atoms, in derivation order.
func (m *Model) UndefinedAtoms() []atom.AtomID {
	var out []atom.AtomID
	for i, g := range m.GP.Atoms {
		if m.GM.Truth[i] == ground.Undefined {
			out = append(out, g)
		}
	}
	return out
}

// predIndex is what the NBCQ matcher keeps per predicate of a model: the
// candidate list and, per argument position, a lazy index over it.
type predIndex struct {
	atoms []atom.AtomID // usable true ∪ undefined atoms, in derivation order
	args  []argIndex    // one per argument position
}

// argIndex buckets a predIndex's atoms by the term at one argument
// position: a counting sort over the dense term IDs, so building it costs
// about two scans of the list plus O(ID range) and hashes nothing. The first
// query that binds the position builds it, once; later readers take no lock
// (sync.Once's fast path is one atomic load).
type argIndex struct {
	once   sync.Once
	built  atomic.Bool   // the index exists: a patch of the list rebuilds it
	lo     term.ID       // smallest term at the position
	start  []int32       // sorted[start[t-lo]:start[t-lo+1]] hold term t
	sorted []atom.AtomID // pi.atoms ordered by the position's term, stably
}

// bucket returns the atoms of pi holding term t at argument position pos,
// in list order, building the position's index on first use (counted in
// *builds).
func (pi *predIndex) bucket(st *atom.Store, pos int, t term.ID, builds *int64) []atom.AtomID {
	ai := pi.index(st, pos, builds)
	if t < ai.lo || int(t-ai.lo)+1 >= len(ai.start) {
		return nil
	}
	return ai.sorted[ai.start[t-ai.lo]:ai.start[t-ai.lo+1]]
}

// index returns pi's index at argument position pos, building it on
// first use (counted in *builds).
func (pi *predIndex) index(st *atom.Store, pos int, builds *int64) *argIndex {
	ai := &pi.args[pos]
	ai.once.Do(func() {
		keys := make([]term.ID, len(pi.atoms)) // one store walk; the rest is arithmetic
		for i, a := range pi.atoms {
			keys[i] = st.Args(a)[pos]
		}
		lo, hi := slices.Min(keys), slices.Max(keys)
		// Count term k into start[k+2], prefix-sum so start[k+1] is where
		// k's bucket begins, then fill through start[k+1] as the cursor:
		// each cursor ends where the next bucket begins.
		start := make([]int32, int(hi-lo)+3)
		for _, k := range keys {
			start[k-lo+2]++
		}
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
		sorted := make([]atom.AtomID, len(keys))
		for i, k := range keys {
			sorted[start[k-lo+1]] = pi.atoms[i]
			start[k-lo+1]++
		}
		ai.lo, ai.start, ai.sorted = lo, start, sorted
		ai.built.Store(true)
		*builds++
	})
	return ai
}

// Usable reports whether query matching may use atom a: always on an exact
// model, otherwise only up to the guard-band depth (see Options.GuardBand).
func (m *Model) Usable(a atom.AtomID) bool {
	return m.UsableDepth < 0 || m.Chase.Depth(a) <= m.UsableDepth
}

// Precompute builds the matcher's per-predicate candidate lists now rather
// than on the first query. The per-argument indexes stay lazy, but all lazy
// matcher state is guarded by a sync.Once, so with or without Precompute a
// model serves Answer, Select, Satisfies, Bindings,
// CheckConstraints and WCheck to unlimited concurrent readers. (Explain has
// its own lazy state; see PrepareExplanations.)
func (m *Model) Precompute() { m.buildIndexes() }

func (m *Model) buildIndexes() {
	m.idxOnce.Do(func() {
		if p := m.patch; p != nil {
			m.patch = nil // release the previous model
			m.preds = p.apply(m)
			return
		}
		st := m.Chase.Prog.Store
		m.preds = make([]*predIndex, st.NumPreds())
		for i, g := range m.GP.Atoms {
			if m.GM.Truth[i] == ground.False || !m.Usable(g) {
				continue // no candidate, or inside the frontier guard band
			}
			p := st.PredOf(g)
			pi := m.preds[p]
			if pi == nil {
				pi = &predIndex{args: make([]argIndex, st.PredArity(p))}
				m.preds[p] = pi
			}
			pi.atoms = append(pi.atoms, g)
		}
	})
}

// indexPatch derives a rebased model's matcher lists from those of the
// model it was rebased from. Truth changes only inside the re-solved
// cone, and so does depth (a retraction deepens or kills only atoms
// downstream of a retracted fact, an addition lowers only atoms
// downstream of an added one), so the candidacy of every other atom of
// the previous universe stands.
type indexPatch struct {
	prev  *Model
	moved []int32 // local atoms whose candidacy may differ, ascending
}

// newIndexPatch returns the patch from prev to m, whose warm solve
// re-solved cone, or nil when the lists must be rebuilt: a cold solve
// (a nil cone), renumbered atoms, or a guard band that moved.
func newIndexPatch(prev, m *Model, cone []int32) *indexPatch {
	if cone == nil || prev.UsableDepth != m.UsableDepth || !m.Chase.SameAtoms(prev.Chase) {
		return nil
	}
	moved := slices.Clone(cone)
	for i := len(prev.GP.Atoms); i < len(m.GP.Atoms); i++ {
		moved = append(moved, int32(i))
	}
	slices.Sort(moved)
	return &indexPatch{prev: prev, moved: slices.Compact(moved)}
}

// apply returns m's matcher lists: prev's, sharing every predicate's
// list (and its built argument indexes) where no candidate moved, and a
// new list — the old one with the moved atoms spliced in or out, still
// in universe order — where one did. The result equals a rebuild.
func (p *indexPatch) apply(m *Model) []*predIndex {
	prev := p.prev
	prev.buildIndexes()
	st := m.Chase.Prog.Store
	preds := make([]*predIndex, st.NumPreds())
	copy(preds, prev.preds)
	type change struct {
		local int32
		a     atom.AtomID
		in    bool
	}
	var byPred map[atom.PredID][]change
	for _, i := range p.moved {
		a := m.GP.Atoms[i]
		in := m.GM.Truth[i] != ground.False && m.Usable(a)
		was := int(i) < len(prev.GM.Truth) && prev.GM.Truth[i] != ground.False && prev.Usable(a)
		if in != was {
			if byPred == nil {
				byPred = make(map[atom.PredID][]change)
			}
			pr := st.PredOf(a)
			byPred[pr] = append(byPred[pr], change{i, a, in})
		}
	}
	for pr, cs := range byPred {
		was := preds[pr] // prev's list, nil when it had none
		var old []atom.AtomID
		if was != nil {
			old = was.atoms
		}
		out := make([]atom.AtomID, 0, len(old)+len(cs))
		at := 0
		for _, c := range cs {
			k := at + sort.Search(len(old)-at, func(j int) bool { return m.Chase.Local(old[at+j]) >= c.local })
			out = append(out, old[at:k]...)
			at = k
			if c.in {
				out = append(out, c.a)
			} else {
				at++ // old[k] is c.a
			}
		}
		out = append(out, old[at:]...)
		preds[pr] = nil
		if len(out) == 0 {
			continue
		}
		pi := &predIndex{atoms: out, args: make([]argIndex, st.PredArity(pr))}
		preds[pr] = pi
		// Rebuild now the argument indexes readers used on the old list:
		// the writer pays for them before the model is published, instead
		// of the first reader of each.
		if was != nil {
			var builds int64
			for pos := range was.args {
				if was.args[pos].built.Load() {
					pi.index(st, pos, &builds)
				}
			}
		}
	}
	return preds
}

// ModelStats summarizes an evaluated model for reporting layers (CLIs,
// the wfsd stats endpoint): chase shape, exactness, and the three-valued
// census of the ground model.
type ModelStats struct {
	Depth           int  // chase depth bound the model was evaluated at
	MaxDepthReached int  // deepest atom actually derived
	Exact           bool // chase saturated: genuine well-founded model
	Truncated       bool // MaxAtoms stopped the chase early
	UsableDepth     int  // guard-band ceiling for query matching; -1 = all

	ChaseAtoms     int // derived universe size
	ChaseInstances int // rule instances fired by the chase

	TrueAtoms      int // atoms true in the model
	UndefinedAtoms int // atoms undefined in the model
	FalseAtoms     int // derived atoms that are false

	// Modular-evaluation shape of the last full solve: dependency-graph
	// SCC count, the largest component's size, how many components had a
	// negation cycle and needed the full WFS fixpoint, and the peak worker
	// goroutines the solve used. The incremental warm start does not
	// condense the whole program; it carries the previous model's shape
	// forward.
	SCCs         int
	LargestSCC   int
	HardSCCs     int
	SolveWorkers int
}

// Stats computes the model's summary statistics.
func (m *Model) Stats() ModelStats {
	cs := m.Chase.ComputeStats()
	s := ModelStats{
		Depth:           m.Depth,
		MaxDepthReached: cs.MaxDepth,
		Exact:           m.Exact,
		Truncated:       cs.Truncated,
		UsableDepth:     m.UsableDepth,
		ChaseAtoms:      cs.Atoms,
		ChaseInstances:  cs.Instances,
		SCCs:            m.GM.SCCs,
		LargestSCC:      m.GM.LargestSCC,
		HardSCCs:        m.GM.HardSCCs,
		SolveWorkers:    m.GM.Workers,
	}
	for _, t := range m.GM.Truth {
		switch t {
		case ground.True:
			s.TrueAtoms++
		case ground.Undefined:
			s.UndefinedAtoms++
		default:
			s.FalseAtoms++
		}
	}
	return s
}

// AnswerStats records how an adaptive answer was obtained.
type AnswerStats struct {
	Depths     []int          // depths evaluated
	Answers    []ground.Truth // answer at each depth
	FinalDepth int
	Exact      bool // chase saturated: the answer is exact, not just stable
	Stable     bool // answer met the stability window
}

// AdaptiveAnswer is the single implementation of the adaptive-deepening
// ladder: the chase depth grows from opts.AdaptiveStart in steps of
// opts.AdaptiveStep until the three-valued answer is unchanged for the
// configured stability window, or the chase saturates (exact), or the
// opts.MaxDepth ceiling is reached. modelAt supplies (or recalls) the
// model at a given depth — an error (e.g. a rung schedule mismatch in the
// snapshot layer) aborts the ladder instead of crashing or silently
// answering False; an empty schedule (Options.Validate) is an error for
// the same reason. compile resolves the query for each rung (the snapshot
// layer resolves names by lookup, so a name a writer interns meanwhile
// resolves from the next rung on). Both Engine.Answer
// and the snapshot layer delegate here, so the two paths can never
// diverge.
func AdaptiveAnswer(opts Options, modelAt func(depth int) (*Model, error),
	compile func(*Model) (*program.Query, error)) (ground.Truth, *AnswerStats, error) {
	return AdaptiveAnswerCancelTraced(opts,
		func(d int, _ *trace.Span) (*Model, error) { return modelAt(d) },
		compile, nil, nil)
}

// AdaptiveAnswerCancelTraced is the ladder with observability and under
// a cancellation token. Each depth rung becomes a depth-N child span of
// tr (model materialization recorded by modelAt under the span it
// receives, the query match under a match child) carrying the
// three-valued answer at that depth as a counter; tr nil is the plain
// ladder, and the one extra nil check per rung is the entire disabled
// cost. The token (nil = never cancelled) is checked before every rung,
// and a rung whose model comes back Interrupted converts to the token's
// cause (context.DeadlineExceeded / context.Canceled) as the error. On
// cancellation the stats of the *completed* rungs and the last computed
// answer are still returned alongside the error — the graceful-
// degradation path (?partial=1) serves the deepest completed rung's
// answer marked inexact. A rung whose chase hit the MaxAtoms valve
// returns the structured ErrBudgetExceeded the same way.
func AdaptiveAnswerCancelTraced(opts Options, modelAt func(depth int, tr *trace.Span) (*Model, error),
	compile func(*Model) (*program.Query, error), tok *cancel.Token, tr *trace.Span) (ground.Truth, *AnswerStats, error) {
	if err := opts.Validate(); err != nil {
		return ground.False, nil, err
	}
	opts = opts.withDefaults()
	stats := &AnswerStats{}
	var last ground.Truth
	agree := 0
	rung := 0
	for d := opts.AdaptiveStart; d <= opts.MaxDepth; d += opts.AdaptiveStep {
		// Poll on the first rung and every 4th after it. Cold rungs poll
		// internally (chase pops, ground SCCs), so this between-rung
		// check only covers runs of already-warm rungs — each sub-µs —
		// and polling a handful of them per check keeps the token tax
		// off the warm answer path without hurting cancellation latency.
		if rung&3 == 0 && tok.Cancelled() {
			tr.MarkCancelled()
			return last, stats, cancelCause(tok)
		}
		rung++
		var ds *trace.Span
		if tr.Enabled() {
			ds = tr.Child("depth-" + strconv.Itoa(d))
		}
		m, err := modelAt(d, ds)
		if err != nil {
			ds.End()
			return last, stats, err
		}
		if m.Interrupted {
			ds.MarkCancelled()
			ds.End()
			tr.MarkCancelled()
			return last, stats, cancelCause(tok)
		}
		if m.Chase.Truncated {
			ds.SetCount("budget_exceeded", 1)
			ds.End()
			return last, stats, budgetErr(m.Chase)
		}
		q, err := compile(m)
		if err != nil {
			ds.End()
			return last, stats, err
		}
		ms := ds.Child("match")
		ans := m.AnswerTraced(q, ms)
		ms.End()
		ds.SetCount("answer", int64(ans))
		ds.End()
		stats.Depths = append(stats.Depths, d)
		stats.Answers = append(stats.Answers, ans)
		stats.FinalDepth = d
		if m.Exact {
			stats.Exact = true
			stats.Stable = true
			return ans, stats, nil
		}
		if len(stats.Answers) > 1 && ans == last {
			agree++
			if agree >= opts.StabilityWindow {
				stats.Stable = true
				return ans, stats, nil
			}
		} else {
			agree = 0
		}
		last = ans
	}
	return last, stats, nil
}

// Answer evaluates an NBCQ by adaptive deepening (see AdaptiveAnswer).
// Successive rungs share the engine's resumable chase, so the ladder
// re-derives nothing. The error reports a configuration whose schedule
// cannot evaluate anything (see Options.Validate).
func (e *Engine) Answer(q *program.Query) (ground.Truth, *AnswerStats, error) {
	return AdaptiveAnswer(e.Opts,
		func(d int) (*Model, error) { return e.EvaluateAtDepth(d), nil },
		func(*Model) (*program.Query, error) { return q, nil })
}
