package chase

// Data-dimension continuations of a finished chase: the guarded chase is
// monotone in the database (chase(D') ⊆ chase(D) for D' ⊆ D, and every
// rule firing over D remains a firing over D ∪ ∆), so
//
//   - additions (ExtendDB) resume the existing chase exactly the way
//     Extend resumes it in depth — new EDB atoms seed fresh frontier work
//     against the carried-over forest, waking parked waiters and
//     cascading depth decreases, while everything already derived stays
//     derived; and
//   - retractions (Retract) re-derive the surviving chase DRed-style by
//     replaying the receiver's own instance forest from the shrunken
//     database: instances are re-fired (or not) by the ordinary
//     derive/expand/park machinery, but against the recorded ground
//     instances instead of matching rules against the store — no
//     substitution matching, no interning, only integer work and
//     page-map lookups that renumber the atoms into the replay's fresh
//     arena. Instances that fail to re-fire are exactly the DRed
//     overdeletion that rederivation could not rescue.
//
// Both operations leave the receiver untouched, like Extend, so models
// already built over it keep serving concurrent readers.

import (
	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/program"
)

// ExtendDB returns a new Result that continues this chase after the
// database grew to newDB: the atoms of added (the set-level growth, each
// already interned in the store) are derived at depth 0 and expanded
// against the carried-over forest, firing only the rule instances the new
// facts enable. prog must share r's compiled rules and store (see
// Extend). r itself is not mutated.
//
// An added atom may already be in the derived universe (an IDB atom now
// asserted as a fact): its depth drops to 0 and the decrease cascades.
// Returns nil when r is truncated — MaxAtoms exhaustion left frontier
// atoms unexpanded, so the continuation cannot know what a from-scratch
// chase of the grown database would derive; callers must rebuild.
func (r *Result) ExtendDB(prog *program.Program, newDB program.Database, added []atom.AtomID) *Result {
	return r.ExtendDBCancel(prog, newDB, added, nil)
}

// ExtendDBCancel is ExtendDB under a cancellation token (nil = never
// cancelled); a cancelled continuation returns with Interrupted set.
func (r *Result) ExtendDBCancel(prog *program.Program, newDB program.Database, added []atom.AtomID, tok *cancel.Token) *Result {
	if r.Truncated {
		return nil
	}
	opts := r.Opts
	opts.Cancel = tok
	nr := r.continuation(prog, opts)
	nr.DB = newDB
	for _, a := range added {
		nr.derive(nr.intern(a), 0, 0)
	}
	nr.run()
	return nr
}

// replayState drives Retract's re-derivation: src supplies the candidate
// records (indexed by guard through src's own occurrence lists), fired
// records which candidates re-fired, and parked holds candidates waiting
// on a not-yet-rederived side atom (the replay analogue of waiters; a
// candidate is parked on at most one atom at a time).
type replayState struct {
	src    *Result
	fired  []bool
	parked map[atom.AtomID][]int32
}

// tryReplay re-fires candidate record ci of the replay source if all its
// positive side atoms are rederived, parking it on the first missing one
// otherwise — the replay counterpart of tryApply, sharing its at-most-one-
// pending-path invariant via the fired flags.
func (r *Result) tryReplay(ci int32) {
	rep := r.replay
	if rep.fired[ci] {
		return
	}
	src := rep.src
	in := src.Ground[ci]
	g := r.Local(src.Universe[src.Body[in.Off]])
	off := len(r.Body)
	r.Body = append(r.Body, g)
	maxLevel := r.level[g]
	for _, sd := range src.Body[in.Off+1 : in.Neg] {
		d := r.Local(src.Universe[sd])
		if d < 0 || r.depth[d] < 0 {
			r.Body = r.Body[:off]
			sa := src.Universe[sd]
			rep.parked[sa] = append(rep.parked[sa], ci)
			return
		}
		r.Body = append(r.Body, d)
		if r.level[d] > maxLevel {
			maxLevel = r.level[d]
		}
	}
	neg := len(r.Body)
	for _, sd := range src.Body[in.Neg:in.End] {
		r.Body = append(r.Body, r.intern(src.Universe[sd]))
	}
	head := r.intern(src.Universe[in.Head])
	rep.fired[ci] = true
	r.record(head, in.Rule, off, neg)
	r.derive(head, r.depth[g]+1, maxLevel+1)
}

// Retract returns a new Result chasing the shrunken database newDB (a
// subset of r.DB at the set level) by replaying r's own instances — see
// the file comment — together with the positions in r.Ground of the
// rule instances that did not survive, for warm-starting the WFS fixpoint
// downstream. The replay writes a fresh arena with its own atom
// numbering. Returns (nil, nil) when r is truncated, in which case the
// instance set is incomplete and the caller must re-chase from scratch.
//
// Soundness: by monotonicity every instance of chase(newDB) is an
// instance of chase(r.DB) with the identical head (Skolem terms are
// functional in the guard binding), so replaying r's instances under the
// ordinary depth/expansion discipline computes exactly the from-scratch
// chase of newDB — the cross-check suite enforces this.
func (r *Result) Retract(prog *program.Program, newDB program.Database) (*Result, []int32) {
	return r.RetractCancel(prog, newDB, nil)
}

// RetractCancel is Retract under a cancellation token (nil = never
// cancelled); a cancelled replay returns with Interrupted set.
func (r *Result) RetractCancel(prog *program.Program, newDB program.Database, tok *cancel.Token) (*Result, []int32) {
	if r.Truncated {
		return nil, nil
	}
	opts := r.Opts
	opts.Cancel = tok
	// The replay writes a fresh arena, its largest arrays sized like the
	// source's: the survivors are a subset, so they do not regrow.
	nr := newResult(prog, newDB, opts, len(r.Universe), len(r.Ground), len(r.Body))
	nr.replay = &replayState{
		src:    r,
		fired:  make([]bool, len(r.Ground)),
		parked: make(map[atom.AtomID][]int32),
	}
	nr.seed(newDB)
	nr.run()
	rep := nr.replay
	// Carry parked work forward so later continuations (ExtendDB, Extend)
	// can resume it:
	//  - candidates still parked on a missing side atom become ordinary
	//    (rule, guard) waiters — their guard re-expanded, so only a wake
	//    can complete them;
	//  - the source's own parked waiters survive verbatim when their guard
	//    is still expanded (their side atom was underived in the larger
	//    universe, hence underived here too). Waiters whose guard died or
	//    fell to the frontier are dropped: a future re-derivation or
	//    deepening re-expands that guard through the normal rule matching,
	//    which re-parks or fires the pair.
	for sa, cis := range rep.parked {
		for _, ci := range cis {
			in := &r.Ground[ci]
			nr.waiters[sa] = append(nr.waiters[sa], waiter{rule: prog.Rules[in.Rule], guard: nr.Local(r.Universe[r.Body[in.Off]])})
		}
	}
	for sa, ws := range r.waiters {
		for _, w := range ws {
			if g := nr.Local(r.Universe[w.guard]); g >= 0 && nr.flags[g]&flagExpanded != 0 {
				nr.waiters[sa] = append(nr.waiters[sa], waiter{rule: w.rule, guard: g})
			}
		}
	}
	nr.replay = nil
	var dead []int32
	for _, ci := range r.Instances {
		if !rep.fired[ci] {
			dead = append(dead, ci)
		}
	}
	return nr, dead
}
