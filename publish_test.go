package wfs

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"
)

// toggleMove is the i-th delta of an alternating add/retract stream on
// the game: even steps add move(c,d), odd steps retract it.
func toggleMove(i int) *Delta {
	if i%2 == 0 {
		return NewDelta().Add("move", "c", "d")
	}
	return NewDelta().Retract("move", "c", "d")
}

// TestReadersNeverWaitForAWriter: a mutation of a warm system publishes
// its successor with the warm model already rebased, so every snapshot a
// reader obtains is warm and epochs only move forward; every build is the
// writer's, and every build after the first is a rebase. A system nobody reads
// is only unpublished: its mutations build and clone nothing. Run with
// -race (CI does).
func TestReadersNeverWaitForAWriter(t *testing.T) {
	t.Run("warm", func(t *testing.T) {
		sys := loadGame(t)
		if tv, err := sys.Answer("win(b)"); err != nil || tv != True {
			t.Fatalf("win(b) = %v (%v)", tv, err)
		}
		const applies = 17
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last uint64
				for {
					snap, err := sys.Snapshot()
					if err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
					if !snap.rungs[0].done.Load() {
						t.Errorf("reader obtained epoch %d with rung 0 cold", snap.epoch)
						return
					}
					if snap.epoch < last {
						t.Errorf("reader saw epoch %d after %d", snap.epoch, last)
						return
					}
					last = snap.epoch
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		for i := 0; i < applies; i++ {
			if err := sys.Apply(toggleMove(i)); err != nil {
				t.Errorf("apply %d: %v", i, err)
				break
			}
		}
		close(stop)
		wg.Wait()
		if m := sys.Metrics().Read(); m.Builds != 1+applies || m.Rebases != applies {
			t.Errorf("builds = %d, rebases = %d, want %d and %d", m.Builds, m.Rebases, 1+applies, applies)
		}
		wantTruth(t, sys, "win(c)", True) // an odd number of toggles leaves move(c,d) in
	})
	t.Run("never read", func(t *testing.T) {
		sys := loadGame(t)
		for i := 0; i < 10; i++ {
			if err := sys.Apply(toggleMove(i)); err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
		}
		if sys.snap.Load() != nil {
			t.Error("mutations of a never-read system published a snapshot")
		}
		if got := sys.Metrics().Read().Builds; got != 0 {
			t.Errorf("builds after 10 unread mutations = %d, want 0", got)
		}
		wantTruth(t, sys, "win(b)", True)
		if got := sys.Metrics().Read().Builds; got != 1 {
			t.Errorf("builds after the first read = %d, want 1", got)
		}
	})
}

// TestPublishRetainsNoPredecessorModel: once a mutation has published
// its warm successor, nothing reachable from the system — reb links
// included — keeps the predecessor's model alive.
func TestPublishRetainsNoPredecessorModel(t *testing.T) {
	sys := loadGame(t)
	wantTruth(t, sys, "win(b)", True)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	old := weak.Make(snap.rungs[0].m)
	snap = nil
	if err := sys.Apply(toggleMove(0)); err != nil {
		t.Fatal(err)
	}
	if got := sys.Metrics().Read().Rebases; got != 1 {
		t.Fatalf("rebases = %d, want 1", got)
	}
	runtime.GC()
	if old.Value() != nil {
		t.Error("the published successor retains epoch 0's model")
	}
	wantTruth(t, sys, "win(c)", True)
}

// TestMetadataReadsNeverQueueBehindAPublish: while a writer holds the
// system lock — here parked in its commit hook — Snapshot, FactsEpoch,
// Epoch and NumFacts answer at once from the published snapshot, and
// after the write returns they report the new epoch.
func TestMetadataReadsNeverQueueBehindAPublish(t *testing.T) {
	sys := loadGame(t)
	wantTruth(t, sys, "win(b)", True)
	entered, release := make(chan struct{}), make(chan struct{})
	sys.SetCommitHook(func(uint64, []FactRef, []FactRef) error {
		close(entered)
		<-release
		return nil
	})
	applied := make(chan error, 1)
	go func() { applied <- sys.AddFact("move", "c", "d") }()
	<-entered

	type meta struct {
		facts, n    int
		epoch, e, s uint64
	}
	got := make(chan meta, 1)
	go func() {
		var m meta
		m.facts, m.epoch = sys.FactsEpoch()
		m.n, m.e = sys.NumFacts(), sys.Epoch()
		if snap, err := sys.Snapshot(); err == nil {
			m.s = snap.Epoch()
		}
		got <- m
	}()
	select {
	case m := <-got:
		if m != (meta{facts: 3, n: 3}) {
			t.Errorf("during the write: %+v, want 3 facts at epoch 0 from every accessor", m)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("metadata reads queued behind the writer")
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if facts, epoch := sys.FactsEpoch(); facts != 4 || epoch != 1 {
		t.Errorf("after the write: FactsEpoch = (%d, %d), want (4, 1)", facts, epoch)
	}
}
