// Package delta is a wrapper kept for the benchmark harness under
// benchmark/, which pins Rebase and Result, until ROADMAP 6.2 unpins it.
// A write's pipeline lives where its stages do: one chase.Result.Apply,
// one ground.View, and the warm start ground.IncrementalModel over the
// Change's seeds (core.RebaseModelCancelTraced runs all three).
package delta

import (
	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/ground"
	"repro/internal/program"
)

// Result is a rebased evaluation state: the chase and grounding of the
// mutated database, plus the warm-start seeds (chase.Change.Seeds).
type Result struct {
	Chase *chase.Result
	GP    *ground.Program
	Seeds []atom.AtomID
}

// Rebase carries (res, gp) — a finished chase of res.DB and its grounding
// — onto newDB, whose set-level change from res.DB is (added, removed),
// at res's depth cap. ok is false when res is truncated, and the caller
// must re-evaluate from scratch.
func Rebase(res *chase.Result, gp *ground.Program, prog *program.Program,
	newDB program.Database, added, removed []atom.AtomID) (Result, bool) {
	next, ch := res.Apply(prog, newDB, removed, added, res.Opts.MaxDepth, nil)
	if next == nil {
		return Result{}, false
	}
	return Result{Chase: next, GP: ground.View(gp, next, ch.Remap), Seeds: ch.Seeds}, true
}
