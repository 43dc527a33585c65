package core

import (
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/ground"
	"repro/internal/program"
)

// TestIncrementalLadderMatchesFromScratch is the tentpole cross-check:
// for every depth of the adaptive-deepening ladder, the engine's
// incremental evaluation (resumable chase + appended grounding) must
// produce the same derived universe, the same instance set, and the same
// three-valued model as a from-scratch chase.Run at that depth, and each
// reference WFS operator run on the extended grounding must reproduce the
// model the production solve computed for it.
func TestIncrementalLadderMatchesFromScratch(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	depths := []int{4, 6, 8, 10, 12} // the default ladder schedule, extended

	for _, ref := range references {
		t.Run(ref.name, func(t *testing.T) {
			inc := NewEngine(prog, db, Options{})
			for _, d := range depths {
				m := inc.EvaluateAtDepth(d) // extends the previous depth's chase
				scratch := NewEngine(prog, db, Options{}).EvaluateAtDepth(d)
				if !ref.wfs(m.GP).Equal(m.GM) {
					t.Errorf("depth %d: %s disagrees with the production model", d, ref.name)
				}

				// Derived universe: same atoms at the same minimal depths.
				if len(m.Chase.Atoms) != len(scratch.Chase.Atoms) {
					t.Fatalf("depth %d: universe %d vs %d atoms",
						d, len(m.Chase.Atoms), len(scratch.Chase.Atoms))
				}
				for _, a := range scratch.Chase.Atoms {
					if !m.Chase.Derived(a) {
						t.Fatalf("depth %d: incremental chase missing %s", d, st.String(a))
					}
					if m.Chase.Depth(a) != scratch.Chase.Depth(a) {
						t.Errorf("depth %d: depth(%s) = %d, want %d", d,
							st.String(a), m.Chase.Depth(a), scratch.Chase.Depth(a))
					}
				}
				// Instance set: same deduplicated (rule, guard) pairs.
				if len(m.Chase.Instances) != len(scratch.Chase.Instances) {
					t.Fatalf("depth %d: instances %d vs %d",
						d, len(m.Chase.Instances), len(scratch.Chase.Instances))
				}
				// Three-valued model: identical truth on every global atom
				// of either universe (local numbering may differ).
				for _, a := range scratch.Chase.Atoms {
					if got, want := m.Truth(a), scratch.Truth(a); got != want {
						t.Errorf("depth %d: truth(%s) = %v, want %v",
							d, st.String(a), got, want)
					}
				}
				if m.Exact != scratch.Exact || m.UsableDepth != scratch.UsableDepth {
					t.Errorf("depth %d: exact/usable = %v/%d, want %v/%d", d,
						m.Exact, m.UsableDepth, scratch.Exact, scratch.UsableDepth)
				}
			}
		})
	}
}

// TestEngineReusesChaseAcrossLadder (white box): the adaptive ladder must
// not re-chase from the database — successive depths extend one resumable
// chase, and repeated requests for the same depth return the cached
// model.
func TestEngineReusesChaseAcrossLadder(t *testing.T) {
	prog, db, _, _ := compile(t, example4)
	e := NewEngine(prog, db, Options{})
	m4 := e.EvaluateAtDepth(4)
	if e.models[4] != m4 || m4.Chase.Opts.MaxDepth != 4 {
		t.Fatalf("engine did not retain the depth-4 chase")
	}
	m6 := e.EvaluateAtDepth(6)
	if m6.Chase.Opts.MaxDepth != 6 || !m6.Chase.Extends(m4.Chase) {
		t.Fatalf("engine chase not advanced to depth 6 from depth 4's")
	}
	// The deeper universe extends the shallower one as a prefix.
	for i, a := range m4.Chase.Atoms {
		if m6.Chase.Atoms[i] != a {
			t.Fatalf("extension reordered atom %d", i)
		}
	}
	if e.EvaluateAtDepth(4) != m4 || e.EvaluateAtDepth(6) != m6 {
		t.Error("per-depth model cache missed")
	}
	// A shallower, off-ladder depth still evaluates correctly (fresh run)
	// and does not clobber the deeper resumable state.
	m3 := e.EvaluateAtDepth(3)
	if len(m3.Chase.Atoms) > len(m6.Chase.Atoms) {
		t.Error("shallow model larger than deep model")
	}
	if m3.Chase.Extends(m4.Chase) || m4.Chase.Extends(m3.Chase) {
		t.Error("the shallow request did not run a fresh chase")
	}
	if e.models[6] != m6 || m6.Chase.Opts.MaxDepth != 6 {
		t.Errorf("shallow request clobbered the deep chase (now %d)", e.models[6].Chase.Opts.MaxDepth)
	}
	// The next rung deepens the deepest model below it, not the fresh
	// shallow one.
	if m8 := e.EvaluateAtDepth(8); !m8.Chase.Extends(m6.Chase) {
		t.Error("depth 8 did not continue depth 6's chase")
	}
}

// TestAdaptiveAnswerEmptyScheduleErrors is the regression test for the
// silent-False bug: a resolved AdaptiveStart above MaxDepth (here via
// GuardBand 30 against the default MaxDepth 24) must surface as a
// descriptive error, not an empty-stats False.
func TestAdaptiveAnswerEmptyScheduleErrors(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	q, err := program.ParseQuery("? t(X).", st)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog, db, Options{GuardBand: 30})
	_, _, aerr := e.Answer(q)
	if aerr == nil {
		t.Fatal("empty adaptive schedule answered without error")
	}
	if !strings.Contains(aerr.Error(), "MaxDepth") {
		t.Errorf("error not descriptive: %v", aerr)
	}

	// Validate catches the same configurations directly.
	if err := (Options{GuardBand: 30}).Validate(); err == nil {
		t.Error("Options.Validate accepted GuardBand 30 with default MaxDepth")
	}
	if err := (Options{AdaptiveStart: 50}).Validate(); err == nil {
		t.Error("Options.Validate accepted AdaptiveStart 50 with default MaxDepth")
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("Options.Validate rejected defaults: %v", err)
	}
	if err := (Options{GuardBand: 30, MaxDepth: 40}).Validate(); err != nil {
		t.Errorf("Options.Validate rejected a satisfiable schedule: %v", err)
	}
}

// TestExtendModelSharesSaturatedChase: deepening past a saturated chase
// reuses the chase and grounding outright.
func TestExtendModelSharesSaturatedChase(t *testing.T) {
	prog, db, _, _ := compile(t, `
edge(a,b). edge(b,c). start(a).
start(X) -> reach(X).
reach(X), edge(X,Y) -> reach(Y).
`)
	e := NewEngine(prog, db, Options{})
	m := e.EvaluateAtDepth(10)
	if !m.Exact {
		t.Fatal("finite chase should saturate")
	}
	ext := Build(m, prog, e.Opts, 20, db, nil, nil)
	if ext.Chase != m.Chase || ext.GP != m.GP {
		t.Error("saturated extension rebuilt chase or grounding")
	}
	if !ext.Exact {
		t.Error("saturated extension lost exactness")
	}
}

// TestIncrementalChaseCrossChecksUnderTruncation: MaxAtoms truncation
// carries over an extension instead of silently clearing.
func TestIncrementalChaseCrossChecksUnderTruncation(t *testing.T) {
	prog, db, _, _ := compile(t, "seed(c).\nseed(X) -> seed(Y).")
	res := chase.Run(prog, db, chase.Options{MaxDepth: 10, MaxAtoms: 5})
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	ext := res.Extend(prog, 20)
	if !ext.Truncated {
		t.Error("extension dropped the truncation flag")
	}
	gp := ground.ExtendFromChase(ground.FromChase(res), ext)
	if gp.NumAtoms() < len(res.Atoms) {
		t.Error("extension lost atoms")
	}
}
