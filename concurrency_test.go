package wfs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSystemConcurrentUse hammers one System from many goroutines mixing
// reads (Answer, Select, TruthOf, Stats) with writes (AddFact). Run under
// -race (as CI does) this guards the serialization contract documented on
// System: the old lazy `s.engine = nil` pattern raced here.
func TestSystemConcurrentUse(t *testing.T) {
	sys, err := Load(`
		move(a,b). move(b,a). move(b,c).
		move(X,Y), not win(Y) -> win(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch g % 4 {
				case 0:
					if g == 0 && i%4 == 3 {
						if err := sys.AddFact("move", fmt.Sprintf("n%d", i), "c"); err != nil {
							errs <- err
						}
						continue
					}
					if tv, err := sys.Answer("win(b)"); err != nil {
						errs <- err
					} else if tv != True {
						errs <- fmt.Errorf("win(b) = %v, want true", tv)
					}
				case 1:
					if _, _, err := sys.Select("? win(X)."); err != nil {
						errs <- err
					}
				case 2:
					if _, err := sys.TruthOf("win(c)"); err != nil {
						errs <- err
					}
				default:
					st := sys.Stats()
					if st.Facts < 3 {
						errs <- fmt.Errorf("stats facts = %d, want ≥ 3", st.Facts)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sys.Epoch() == 0 {
		t.Errorf("epoch never advanced despite writes")
	}
}

// TestSnapshotReadersDuringWrites pins the snapshot contract under -race:
// readers holding a stale snapshot keep getting the same answers while a
// writer interleaves AddFact calls, readers grabbing fresh snapshots see
// monotonically advancing epochs, and nothing races.
func TestSnapshotReadersDuringWrites(t *testing.T) {
	sys, err := Load(`
		move(a,b). move(b,a). move(b,c).
		move(X,Y), not win(Y) -> win(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Prepare("win(b)")
	if err != nil {
		t.Fatal(err)
	}
	stale, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := stale.Answer(q)
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers, iters = 2, 6, 20
	var wg sync.WaitGroup
	errs := make(chan error, (writers+readers)*iters)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// New leaf nodes only: win(b) stays true in every epoch,
				// so fresh-snapshot answers are checkable below.
				if err := sys.AddFact("move", fmt.Sprintf("w%d_%d", w, i), "c"); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; i < iters; i++ {
				// The stale snapshot answers its frozen epoch, always.
				if tv, err := stale.Answer(q); err != nil {
					errs <- err
				} else if tv != want {
					errs <- fmt.Errorf("stale answer flipped: %v -> %v", want, tv)
				}
				// A current snapshot answers consistently with itself.
				snap, err := sys.Snapshot()
				if err != nil {
					errs <- err
					continue
				}
				if e := snap.Epoch(); e < lastEpoch {
					errs <- fmt.Errorf("epoch went backwards: %d -> %d", lastEpoch, e)
				} else {
					lastEpoch = e
				}
				if tv, err := snap.Answer(q); err != nil {
					errs <- err
				} else if tv != True {
					errs <- fmt.Errorf("win(b) = %v in epoch %d, want true", tv, snap.Epoch())
				}
				if r%2 == 0 {
					if facts := snap.TrueFacts(); len(facts) == 0 {
						errs <- fmt.Errorf("empty TrueFacts in epoch %d", snap.Epoch())
					}
				} else {
					snap.Stats()
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := sys.Epoch(); got != writers*iters {
		t.Errorf("final epoch = %d, want %d", got, writers*iters)
	}
	if tv, _ := stale.Answer(q); tv != want {
		t.Errorf("stale snapshot drifted after the dust settled")
	}
}

// TestRenderDuringWrites exercises the snapshot-based TrueFacts /
// UndefinedFacts rendering concurrently with writes: rendering holds no
// system lock, so writes proceed while renders are in flight.
func TestRenderDuringWrites(t *testing.T) {
	sys, err := Load(`
		move(a,b). move(b,a). move(b,c).
		move(X,Y), not win(Y) -> win(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := sys.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				if got := snap.TrueFacts(); len(got) == 0 {
					t.Error("no true facts")
					return
				}
				snap.UndefinedFacts()
			}
		}()
	}
	for i := 0; i < 25; i++ {
		if err := sys.AddFact("move", fmt.Sprintf("r%d", i), "c"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	snap, _ := sys.Snapshot()
	if got := len(snap.TrueFacts()); got < 25 {
		t.Errorf("final model has %d true facts, want ≥ 25", got)
	}
}

// TestParallelSolveUnderConcurrentReaders pins the modular solver's
// worker pool under -race while snapshots are being built, read, and
// invalidated concurrently: a many-component win-move program with
// Parallelism 4 makes every evaluation fan components out across solver
// goroutines, writers interleave mutations (so rebased snapshots exercise
// the incremental path's condensation closure too), and readers hold
// both stale and fresh snapshots.
func TestParallelSolveUnderConcurrentReaders(t *testing.T) {
	var b strings.Builder
	b.WriteString("move(X,Y), not win(Y) -> win(X).\n")
	for c := 0; c < 12; c++ {
		for i := 0; i < 6; i++ {
			fmt.Fprintf(&b, "move(p%d_%d, p%d_%d).\n", c, i, c, i+1)
		}
	}
	// A few genuine negation cycles so hard components solve in parallel
	// with cheap ones.
	for c := 0; c < 3; c++ {
		fmt.Fprintf(&b, "move(c%d_a, c%d_b).\nmove(c%d_b, c%d_a).\n", c, c, c, c)
	}
	sys, err := LoadWithOptions(b.String(), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Prepare("win(p0_1)")
	if err != nil {
		t.Fatal(err)
	}
	stale, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := stale.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := stale.Stats(); st.Model.SCCs == 0 || st.Model.HardSCCs != 3 {
		t.Fatalf("model stats missing SCC shape: %+v", st.Model)
	}

	const writers, readers, iters = 2, 6, 15
	var wg sync.WaitGroup
	// Each reader iteration can report up to two errors (stale and fresh
	// mismatch); size for the worst case so a broad regression fails
	// loudly instead of deadlocking senders.
	errs := make(chan error, (writers+2*readers)*iters)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Fresh leaf edges only: win(p0_1) keeps its truth value.
				if err := sys.AddFact("move", fmt.Sprintf("w%d_%d", w, i), "p0_6"); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if tv, err := stale.Answer(q); err != nil {
					errs <- err
				} else if tv != want {
					errs <- fmt.Errorf("stale answer flipped: %v -> %v", want, tv)
				}
				snap, err := sys.Snapshot()
				if err != nil {
					errs <- err
					continue
				}
				if tv, err := snap.Answer(q); err != nil {
					errs <- err
				} else if tv != want {
					errs <- fmt.Errorf("win(p0_1) = %v in epoch %d, want %v", tv, snap.Epoch(), want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEpochAndInvalidation(t *testing.T) {
	sys, err := Load(`p(X) -> q(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Epoch() != 0 {
		t.Errorf("fresh epoch = %d, want 0", sys.Epoch())
	}
	if err := sys.AddFact("p", "a"); err != nil {
		t.Fatal(err)
	}
	if sys.Epoch() != 1 {
		t.Errorf("epoch after AddFact = %d, want 1", sys.Epoch())
	}
	if tv, _ := sys.TruthOf("q(a)"); tv != True {
		t.Errorf("q(a) = %v, want true after invalidation", tv)
	}
}

func TestNormalizeQuery(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"win(b)", "? win(b)."},
		{"?   win( b ) .", "? win(b)."},
		{"? p(X), not q(X).", "? p(X), not q(X)."},
	} {
		got, err := NormalizeQuery(tc.in)
		if err != nil {
			t.Errorf("NormalizeQuery(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if _, err := NormalizeQuery("p("); err == nil {
		t.Errorf("NormalizeQuery accepted malformed input")
	}
}

func TestStats(t *testing.T) {
	sys, err := Load(`
		scientist(john).
		scientist(X) -> isAuthorOf(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Facts != 1 || !st.Stratified {
		t.Errorf("stats = %+v", st)
	}
	if st.Model.TrueAtoms == 0 || st.Model.ChaseAtoms == 0 {
		t.Errorf("model stats empty: %+v", st.Model)
	}
	if st.Model.MaxDepthReached == 0 {
		t.Errorf("existential rule should derive at depth > 0")
	}
	if st.DeltaBits == 0 || st.DeltaBound == "" {
		t.Errorf("δ missing: %+v", st)
	}
}

// TestArgumentIndexBuiltOnceUnderConcurrentFirstUse pins the lazy
// argument indexes under -race: many goroutines issue their first
// partially bound queries against one fresh snapshot at the same moment.
// Every answer is right, and — summed over all the goroutines' match
// spans — each (model, predicate, argument position) index the queries
// bind was built exactly once.
func TestArgumentIndexBuiltOnceUnderConcurrentFirstUse(t *testing.T) {
	var b strings.Builder
	b.WriteString("move(X,Y), not win(Y) -> win(X).\n")
	const chains, length = 40, 6
	for c := 0; c < chains; c++ {
		for i := 0; i < length; i++ {
			fmt.Fprintf(&b, "move(p%d_%d, p%d_%d).\n", c, i, c, i+1)
		}
	}
	sys, err := Load(b.String())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Each chain ends at p_6, which has no move: win(p_5) holds, win(p_4)
	// does not, win(p_3) does. The shapes bind move/0 and move/1, by a
	// constant and through a join variable; the unary win literals are
	// fully bound by then and need no index.
	shapes := []func(c int) (string, Truth){
		func(c int) (string, Truth) { return fmt.Sprintf("? move(p%d_4,Y), not win(Y).", c), False },
		func(c int) (string, Truth) { return fmt.Sprintf("? move(X,p%d_6), win(X).", c), True },
		func(c int) (string, Truth) { return fmt.Sprintf("? move(p%d_2,Y), move(Y,Z), not win(Z).", c), True },
		func(c int) (string, Truth) { return fmt.Sprintf("? move(X,p%d_6), move(W,X), not win(W).", c), True },
	}

	const goroutines = 12
	var wg sync.WaitGroup
	var builds atomic.Int64
	start := make(chan struct{})
	errs := make(chan error, goroutines*len(shapes))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range shapes {
				src, want := shapes[(g+i)%len(shapes)](g % chains)
				q, err := Prepare(src)
				if err != nil {
					errs <- err
					return
				}
				ans, _, et, err := snap.TraceAnswer(q)
				if err != nil || ans != want {
					errs <- fmt.Errorf("%s = %v (%v), want %v", src, ans, err, want)
				}
				_, n, _ := matchCounters(et)
				builds.Add(n)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// move/0 and move/1 on the one model of this certified program.
	if got := builds.Load(); got != 2 {
		t.Errorf("argument indexes built %d times in total, want 2 (each once)", got)
	}
}
