package wfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// batchScript generates random multi-fact mutation batches over the
// win-move program, tracking the database as a multiset so that every
// batch is valid unless the script plants a failure on purpose.
type batchScript struct {
	rng   *rand.Rand
	live  map[string]int // rendered fact -> multiplicity
	facts map[string]factSpec
	fresh int
}

func newBatchScript(seed int64) *batchScript {
	b := &batchScript{rng: rand.New(rand.NewSource(seed)), live: map[string]int{}, facts: map[string]factSpec{}}
	for _, f := range []factSpec{{"move", []string{"a", "b"}}, {"move", []string{"b", "a"}}, {"move", []string{"b", "c"}}} {
		b.live[f.String()]++
		b.facts[f.String()] = f
	}
	return b
}

// anyFact returns a fact over a small constant pool or a fresh constant,
// on the program's predicate, a unary one, or a nullary one, so that
// additions intern new predicates and constants and repeat known ones.
func (b *batchScript) anyFact() factSpec {
	c := func() string {
		if b.rng.Intn(4) == 0 {
			b.fresh++
			return fmt.Sprintf("n%d", b.fresh)
		}
		return string(rune('a' + b.rng.Intn(5)))
	}
	switch b.rng.Intn(6) {
	case 0:
		return factSpec{"tag", []string{c()}}
	case 1:
		return factSpec{"flag", nil}
	default:
		return factSpec{"move", []string{c(), c()}}
	}
}

// liveFact returns a fact currently in the database.
func (b *batchScript) liveFact() (factSpec, bool) {
	var keys []string
	for k, n := range b.live {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return factSpec{}, false
	}
	// Map order is random; sort for a reproducible script.
	sort.Strings(keys)
	return b.facts[keys[b.rng.Intn(len(keys))]], true
}

// batch returns a valid batch and applies it to the model.
func (b *batchScript) batch() *Delta {
	d := NewDelta()
	retracted := map[string]bool{}
	for i := b.rng.Intn(3); i > 0; i-- {
		if f, ok := b.liveFact(); ok {
			d.Retract(f.pred, f.args...)
			retracted[f.String()] = true
		}
	}
	for i := b.rng.Intn(4); i > 0 || d.Empty(); i-- {
		f := b.anyFact()
		if retracted[f.String()] {
			continue
		}
		d.Add(f.pred, f.args...)
		if b.rng.Intn(4) == 0 { // a duplicate in the same batch
			d.Add(f.pred, f.args...)
		}
	}
	for k := range retracted {
		b.live[k] = 0
	}
	for _, f := range d.adds {
		b.live[f.String()]++
		b.facts[f.String()] = f
	}
	return d
}

// failing returns a batch that must be rejected, of the given kind,
// after some valid mutations that must not land either.
func (b *batchScript) failing(kind int) *Delta {
	d := NewDelta()
	if f, ok := b.liveFact(); ok {
		d.Retract(f.pred, f.args...)
	}
	d.Add("move", "x", "y")
	switch kind {
	case 0: // a retraction target that is not in the database
		var gone []string
		for k, n := range b.live {
			if n == 0 {
				gone = append(gone, k)
			}
		}
		if len(gone) > 0 && b.rng.Intn(2) == 0 {
			sort.Strings(gone)
			f := b.facts[gone[b.rng.Intn(len(gone))]]
			d.Retract(f.pred, f.args...)
		} else {
			d.Retract("move", "zz", "a")
		}
	case 1: // an arity clash, with the schema or within the batch
		if b.rng.Intn(2) == 0 {
			d.Add("move", "a")
		} else {
			d.Add("tag", "a").Add("tag", "a", "b")
		}
	default: // one fact both added and retracted
		if f, ok := b.liveFact(); ok {
			d.Add(f.pred, f.args...).Retract(f.pred, f.args...)
		} else {
			d.Add("flag").Retract("flag")
		}
	}
	return d
}

// hookLog records what a commit hook saw, one line per batch.
func hookLog(sys *System) *[]string {
	var log []string
	sys.SetCommitHook(func(epoch uint64, adds, retracts []FactRef) error {
		log = append(log, fmt.Sprintf("%d +%v -%v", epoch, adds, retracts))
		return nil
	})
	return &log
}

// TestApplyAllMatchesSequentialApply: applying a script of batches in
// one ApplyAll leaves exactly what one Apply per batch leaves — the
// database in the same order, the same epoch, the same interned atoms
// and terms, the same commit-hook calls, the same model — and a batch
// that fails mid-script stops both at the same batch with the same
// error, the batches before it committed.
func TestApplyAllMatchesSequentialApply(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		script := newBatchScript(seed)
		n := 1 + script.rng.Intn(12)
		var batches []*Delta
		failAt := -1
		if seed%4 != 0 {
			failAt = script.rng.Intn(n + 1)
		}
		for i := 0; i <= n; i++ {
			if i == failAt {
				batches = append(batches, script.failing(int(seed)%3))
				continue
			}
			batches = append(batches, script.batch())
		}
		warm := seed%2 == 0

		seq, all := loadGame(t), loadGame(t)
		if warm { // publish a warm snapshot, so the commit rebases it
			wantTruth(t, seq, "win(b)", True)
			wantTruth(t, all, "win(b)", True)
		}
		seqHook, allHook := hookLog(seq), hookLog(all)
		seqN, seqErr := 0, error(nil)
		for _, d := range batches {
			if seqErr = seq.Apply(d); seqErr != nil {
				break
			}
			seqN++
		}
		allN, allErr := all.ApplyAll(batches)

		name := fmt.Sprintf("seed %d (fail at %d, warm %v)", seed, failAt, warm)
		if allN != seqN || fmt.Sprint(allErr) != fmt.Sprint(seqErr) {
			t.Fatalf("%s: ApplyAll = %d, %v; one Apply per batch = %d, %v", name, allN, allErr, seqN, seqErr)
		}
		if (failAt >= 0) != (allErr != nil) || (failAt >= 0 && allN != failAt) {
			t.Fatalf("%s: ApplyAll = %d, %v", name, allN, allErr)
		}
		wantFacts, wantEpoch := seq.DumpState()
		gotFacts, gotEpoch := all.DumpState()
		if gotEpoch != wantEpoch || !reflect.DeepEqual(gotFacts, wantFacts) {
			t.Fatalf("%s: state\n got epoch %d %v\nwant epoch %d %v", name, gotEpoch, gotFacts, wantEpoch, wantFacts)
		}
		// Interning is identical too. A warm sequential run also evaluates
		// every intermediate epoch, interning derived atoms ApplyAll never
		// visits, so the store is compared on cold systems, as replay
		// runs on.
		if !warm {
			if g, w := all.store.Len(), seq.store.Len(); g != w {
				t.Fatalf("%s: %d atoms interned, want %d", name, g, w)
			}
			if g, w := all.store.Terms.Len(), seq.store.Terms.Len(); g != w {
				t.Fatalf("%s: %d terms interned, want %d", name, g, w)
			}
			if !reflect.DeepEqual(all.db, seq.db) {
				t.Fatalf("%s: database atom IDs %v, want %v", name, all.db, seq.db)
			}
		}
		if !reflect.DeepEqual(*allHook, *seqHook) {
			t.Fatalf("%s: commit hook saw\n%s\nwant\n%s", name, strings.Join(*allHook, "\n"), strings.Join(*seqHook, "\n"))
		}
		if g, w := all.TrueFacts(), seq.TrueFacts(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: true facts %v, want %v", name, g, w)
		}
		if g, w := all.UndefinedFacts(), seq.UndefinedFacts(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: undefined facts %v, want %v", name, g, w)
		}
	}
}

// TestApplyAllEmptyBatches: empty and nil deltas count as applied but
// bump no epoch, as Apply of an empty delta does.
func TestApplyAllEmptyBatches(t *testing.T) {
	sys := loadGame(t)
	n, err := sys.ApplyAll([]*Delta{nil, NewDelta(), NewDelta().Add("move", "c", "d"), NewDelta()})
	if err != nil || n != 4 {
		t.Fatalf("ApplyAll = %d, %v; want 4, nil", n, err)
	}
	if e := sys.Epoch(); e != 1 {
		t.Fatalf("epoch %d, want 1", e)
	}
	if n, err := sys.ApplyAll(nil); n != 0 || err != nil {
		t.Fatalf("ApplyAll(nil) = %d, %v", n, err)
	}
}
