package wfs

import (
	"fmt"

	"repro/internal/atom"
	"repro/internal/program"
	"repro/internal/term"
	"repro/internal/trace"
)

// DumpState renders the current database as store-independent fact
// references together with the epoch it belongs to, as one consistent
// pair under the read lock. The result is the payload of a durability
// checkpoint: Restore(src, opts, facts, epoch) over a dump taken from a
// system loaded from src rebuilds an equivalent system.
//
// Only database (EDB) facts are dumped — derived state is recomputed on
// restore, never persisted — and database facts are always over plain
// constants (labelled nulls exist only in chase results), so the string
// rendering is lossless.
func (s *System) DumpState() (facts []FactRef, epoch uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	facts = make([]FactRef, len(s.db))
	for i, a := range s.db {
		p := s.store.PredOf(a)
		args := s.store.Args(a)
		fr := FactRef{Pred: s.store.PredName(p)}
		if len(args) > 0 {
			fr.Args = make([]string, len(args))
			for j, t := range args {
				fr.Args[j] = s.store.Terms.Name(t)
			}
		}
		facts[i] = fr
	}
	return facts, s.epoch
}

// Restore rebuilds a System from checkpoint state: it compiles src (rules,
// constraints, and embedded queries) under opts like LoadWithOptions, but
// takes the database from facts — a checkpoint's fact list is the
// complete database, source facts included — and sets the mutation epoch.
// The source's facts intern only their predicates, so the restored schema
// is the loaded one; predicates appearing only in facts are created at
// the fact's arity, and an arity clash with the compiled schema reports a
// corrupt checkpoint rather than silently misloading. The phases — parse,
// compile (counting the facts), analyze — are recorded under tr (nil
// records nothing).
//
// Restore plus an in-order replay of the deltas committed after the
// checkpoint (System.ApplyAll, or one Apply per delta: either bumps the
// epoch by one per batch, matching the epochs a CommitHook observed)
// reproduces the pre-crash system state.
func Restore(src string, opts Options, facts []FactRef, epoch uint64, tr *trace.Span) (*System, error) {
	unit, err := parse(src, tr)
	if err != nil {
		return nil, fmt.Errorf("wfs: restore: %w", err)
	}
	sp := tr.Child("compile")
	defer sp.End()
	sp.SetCount("facts", int64(len(facts)))
	st := atom.NewStore(term.NewStore())
	prog, queries, err := program.CompileSchema(unit, st)
	if err != nil {
		return nil, fmt.Errorf("wfs: restore: %w", err)
	}
	st.Grow(len(facts))
	db := make(program.Database, 0, len(facts))
	for _, f := range facts {
		a, err := st.Fact(f.Pred, f.Args)
		if err != nil {
			return nil, fmt.Errorf("wfs: restore %s: %w", f.Pred, err)
		}
		db = append(db, a)
	}
	sp.End()
	return newSystem(st, prog, db, queries, opts, epoch, tr)
}
