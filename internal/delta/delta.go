// Package delta is the incremental-update subsystem: it carries a
// finished chase, its grounding, and (through the seeds it reports) the
// WFS model across a database mutation without re-running rule matching
// or full fixpoint evaluation.
//
// The pipeline for one applied delta is
//
//	diff ──▶ retract (DRed replay over the forest)
//	     ──▶ extend  (data-dimension chase continuation)
//	     ──▶ reground (a view of the extended arena, or of the replay's
//	                   fresh arena with rebuilt occurrence lists)
//	     ──▶ seeds   (atoms whose ground rule set changed)
//
// with the warm-started WFS fixpoint (ground.IncrementalModel) consuming
// the seeds downstream. Everything here is set-level: the database is a
// multiset at the API layer, but the chase — and therefore everything
// the delta subsystem maintains — only sees which atoms are present.
package delta

import (
	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/chase"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/trace"
)

// Diff computes the set-level difference between two database instances:
// atoms present in newDB but not oldDB (added, in newDB order) and present
// in oldDB but not newDB (removed, in oldDB order). Duplicate entries
// within either database are ignored — a fact that merely changed
// multiplicity is no chase-level change at all. Membership is two
// bitsets over the atom IDs: a mutation diffs two whole databases, and a
// bit test per fact keeps that to a few scans.
func Diff(oldDB, newDB program.Database) (added, removed []atom.AtomID) {
	n := 0
	for _, db := range []program.Database{oldDB, newDB} {
		for _, a := range db {
			n = max(n, int(a)+1)
		}
	}
	inOld, inNew := ground.NewBits(n), ground.NewBits(n)
	for _, a := range oldDB {
		inOld.Set(int32(a))
	}
	for _, a := range newDB {
		if !inNew.Get(int32(a)) {
			inNew.Set(int32(a))
			if !inOld.Get(int32(a)) {
				added = append(added, a)
			}
		}
	}
	for _, a := range oldDB {
		if !inNew.Get(int32(a)) {
			inNew.Set(int32(a)) // report a duplicate once
			removed = append(removed, a)
		}
	}
	return added, removed
}

// Result is a rebased evaluation state: the chase and grounding of the
// mutated database, plus the warm-start seeds — every global atom whose
// ground rule set changed (retracted facts, heads of instances that died
// in the retraction, added facts, and heads of instances the additions
// fired). ground.IncrementalModel re-solves exactly the dependency cone
// of these seeds.
type Result struct {
	Chase *chase.Result
	GP    *ground.Program
	Seeds []atom.AtomID
}

// Rebase carries (res, gp) — a finished chase of res.DB and its grounding
// — onto the mutated database newDB, whose set-level change from res.DB
// is (added, removed), both already interned in res's store (prog must
// be bound to that store). Retractions
// replay the derivation forest (chase.Result.Retract), additions extend
// it (chase.Result.ExtendDB), and the grounding is a view of the
// resulting arena: extended for pure additions, with its occurrence lists
// rebuilt after a retraction.
//
// ok is false when the state cannot be rebased — a truncated chase, whose
// instance set is incomplete — and the caller must re-evaluate from
// scratch.
func Rebase(res *chase.Result, gp *ground.Program, prog *program.Program,
	newDB program.Database, added, removed []atom.AtomID) (Result, bool) {
	return RebaseCancelTraced(res, gp, prog, newDB, added, removed, nil, nil)
}

// RebaseCancelTraced is Rebase with observability and under a
// cancellation token. The overdelete (retract), rederive (extend-db), and
// reground stages become child spans of tr, with delta sizes
// (added/removed facts, dead and refired instances) as counters; tr nil
// records nothing. The token (nil = never cancelled) is threaded into the
// retraction replay and the data-dimension chase continuation, and polled
// between stages. A cancelled rebase reports ok=false with an interrupted
// chase — callers on a cancellable path must check the token before
// falling back to a from-scratch rebuild.
func RebaseCancelTraced(res *chase.Result, gp *ground.Program, prog *program.Program,
	newDB program.Database, added, removed []atom.AtomID, tok *cancel.Token, tr *trace.Span) (Result, bool) {
	if res.Truncated {
		return Result{}, false
	}
	tr.SetCount("added_facts", int64(len(added)))
	tr.SetCount("removed_facts", int64(len(removed)))
	seeds := make([]atom.AtomID, 0, len(added)+len(removed))
	cur, curGP := res, gp
	if len(removed) > 0 {
		mid := newDB
		if len(added) > 0 {
			// Intermediate database: the old one minus the removals.
			rm := make(map[atom.AtomID]struct{}, len(removed))
			for _, a := range removed {
				rm[a] = struct{}{}
			}
			mid = make(program.Database, 0, len(res.DB))
			for _, a := range res.DB {
				if _, dead := rm[a]; !dead {
					mid = append(mid, a)
				}
			}
		}
		endRetract := tr.Phase("retract")
		next, dead := cur.RetractCancel(prog, mid, tok)
		endRetract()
		if next == nil || next.Interrupted {
			return Result{}, false
		}
		tr.SetCount("dead_instances", int64(len(dead)))
		for _, ci := range dead {
			seeds = append(seeds, cur.Head(ci))
		}
		seeds = append(seeds, removed...)
		cur, curGP = next, nil // a fresh arena: reground below
	}
	if len(added) > 0 {
		firstInst, firstRec := len(cur.Instances), len(cur.Ground)
		endExtend := tr.Phase("extend-db")
		next := cur.ExtendDBCancel(prog, newDB, added, tok)
		endExtend()
		if next == nil || next.Interrupted {
			return Result{}, false
		}
		tr.SetCount("new_instances", int64(len(next.Instances)-firstInst))
		// The new records: fired instances, and a fact record for every
		// added atom, including one the chase had derived through rules.
		for rec := firstRec; rec < len(next.Ground); rec++ {
			seeds = append(seeds, next.Head(int32(rec)))
		}
		cur = next
	}
	endReground := tr.Phase("reground")
	if curGP != nil {
		// Pure addition: the grounding is a view of the extended arena.
		curGP = ground.ExtendFromChase(curGP, cur)
	} else {
		curGP = ground.FromChase(cur)
	}
	endReground()
	return Result{Chase: cur, GP: curGP, Seeds: seeds}, true
}
