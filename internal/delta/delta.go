// Package delta is the incremental-update subsystem: it carries a
// finished chase, its grounding, and (through the seeds it reports) the
// WFS model across a database mutation without re-running rule matching
// or full fixpoint evaluation.
//
// The pipeline for one applied delta is
//
//	diff ──▶ retract (DRed on the forest, in the chase's own numbering)
//	     ──▶ extend  (data-dimension chase continuation)
//	     ──▶ reground (a view of the arena: the previous occurrence lists,
//	                   renumbered after a retraction, extended through
//	                   the chase's links after an addition)
//	     ──▶ seeds   (atoms whose ground rule set changed)
//
// with the warm-started WFS fixpoint (ground.IncrementalModel) consuming
// the seeds downstream. Atoms keep their numbers through every stage
// (until a retraction compacts the arena), so the warm start reads the
// previous model by index. Everything here is set-level: the database is
// a multiset at the API layer, but the chase — and therefore everything
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
// be bound to that store). Retractions run DRed on the derivation forest
// (chase.Result.RetractCancel), additions extend it
// (chase.Result.ExtendDB), and the grounding is a view of the resulting
// arena: gp's occurrence lists renumbered after a retraction, extended
// after an addition.
//
// ok is false when the state cannot be rebased — a truncated chase, whose
// instance set is incomplete — and the caller must re-evaluate from
// scratch.
func Rebase(res *chase.Result, gp *ground.Program, prog *program.Program,
	newDB program.Database, added, removed []atom.AtomID) (Result, bool) {
	return RebaseCancelTraced(res, gp, prog, newDB, added, removed, nil, nil)
}

// RebaseCancelTraced is Rebase with observability and under a
// cancellation token. The retract, extend-db, and reground stages become
// child spans of tr, with delta sizes (added/removed facts, dead and new
// instances, overdeleted and rederived atoms, whether the retraction
// compacted) as counters; tr nil records nothing. The token (nil = never
// cancelled) is threaded into the retraction and the data-dimension
// chase continuation. A cancelled rebase reports ok=false with an
// interrupted chase — callers on a cancellable path must check the token
// before falling back to a from-scratch rebuild.
func RebaseCancelTraced(res *chase.Result, gp *ground.Program, prog *program.Program,
	newDB program.Database, added, removed []atom.AtomID, tok *cancel.Token, tr *trace.Span) (Result, bool) {
	if res.Truncated {
		return Result{}, false
	}
	tr.SetCount("added_facts", int64(len(added)))
	tr.SetCount("removed_facts", int64(len(removed)))
	seeds := make([]atom.AtomID, 0, len(added)+len(removed))
	cur := res
	var ret *chase.Retraction
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
		next, r := cur.RetractCancel(prog, mid, removed, tok)
		endRetract()
		if next == nil || next.Interrupted {
			return Result{}, false
		}
		ret = r
		tr.SetCount("dead_instances", int64(len(ret.Dead)))
		tr.SetCount("overdeleted_atoms", int64(ret.Overdeleted))
		tr.SetCount("rederived_atoms", int64(ret.Rederived))
		compacted := int64(0)
		if ret.Compacted {
			compacted = 1
		}
		tr.SetCount("compacted", compacted)
		for _, ci := range ret.Dead {
			seeds = append(seeds, cur.Head(ci))
		}
		seeds = append(seeds, removed...)
		cur = next
	}
	retracted := cur
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
	curGP := gp
	if ret != nil {
		curGP = ground.RetractFromChase(gp, retracted, ret.Remap)
	}
	if len(added) > 0 {
		curGP = ground.ExtendFromChase(curGP, cur)
	}
	endReground()
	return Result{Chase: cur, GP: curGP, Seeds: seeds}, true
}
