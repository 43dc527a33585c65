package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	wfs "repro"
)

// winMove is a program with true, false, and undefined atoms, so the
// cross-checks compare real three-valued state, not just the database.
const winMove = `move(X,Y), not win(Y) -> win(X).
move(a,b). move(b,a). move(b,c).
`

// openLogged opens a manager in dir, loads src as a fresh session named
// name with its initial checkpoint, and wires the commit hook so every
// mutation of the returned system is logged before it commits.
func openLogged(t *testing.T, dir string, opts Options, name, src string) (*Manager, *wfs.System, *SessionLog) {
	t.Helper()
	man, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sys, err := wfs.Load(src)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	facts, epoch := sys.DumpState()
	l, err := man.Create(name, Checkpoint{Source: src, Options: wfs.Options{}, Epoch: epoch, Facts: facts})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	sys.SetCommitHook(func(e uint64, adds, retracts []wfs.FactRef) error {
		return l.Append(e, adds, retracts)
	})
	return man, sys, l
}

// renderFacts renders fact refs as sorted "pred(a,b)" strings, the
// order-independent comparison form (the database is a multiset, so
// duplicates must survive the sort — hence strings, not a set).
func renderFacts(facts []wfs.FactRef) []string {
	out := make([]string, len(facts))
	for i, f := range facts {
		if len(f.Args) == 0 {
			out[i] = f.Pred
		} else {
			out[i] = f.Pred + "(" + strings.Join(f.Args, ",") + ")"
		}
	}
	sort.Strings(out)
	return out
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// requireSameState asserts two systems agree on epoch, database, and the
// full three-valued model.
func requireSameState(t *testing.T, want, got *wfs.System) {
	t.Helper()
	if we, ge := want.Epoch(), got.Epoch(); we != ge {
		t.Fatalf("epoch: want %d, got %d", we, ge)
	}
	wf, _ := want.DumpState()
	gf, _ := got.DumpState()
	if w, g := renderFacts(wf), renderFacts(gf); !reflect.DeepEqual(w, g) {
		t.Fatalf("database mismatch:\nwant %v\ngot  %v", w, g)
	}
	if w, g := sortedCopy(want.TrueFacts()), sortedCopy(got.TrueFacts()); !reflect.DeepEqual(w, g) {
		t.Fatalf("true facts mismatch:\nwant %v\ngot  %v", w, g)
	}
	if w, g := sortedCopy(want.UndefinedFacts()), sortedCopy(got.UndefinedFacts()); !reflect.DeepEqual(w, g) {
		t.Fatalf("undefined facts mismatch:\nwant %v\ngot  %v", w, g)
	}
}

func TestDeltaRecordRoundTrip(t *testing.T) {
	cases := []struct {
		epoch    uint64
		adds     []wfs.FactRef
		retracts []wfs.FactRef
	}{
		{1, []wfs.FactRef{{Pred: "p", Args: []string{"a", "b"}}}, nil},
		{2, nil, []wfs.FactRef{{Pred: "p", Args: []string{"a", "b"}}}},
		{3, []wfs.FactRef{{Pred: "flag"}}, []wfs.FactRef{{Pred: "q", Args: []string{""}}}},
		{1 << 40, []wfs.FactRef{{Pred: "söme_préd", Args: []string{"välue", "x,y(z)"}}}, nil},
		{5, []wfs.FactRef{
			{Pred: "edge", Args: []string{"a", "b"}},
			{Pred: "edge", Args: []string{"a", "b"}}, // duplicates survive
			{Pred: "n", Args: []string{"1", "2", "3", "4", "5"}},
		}, []wfs.FactRef{{Pred: "edge", Args: []string{"b", "c"}}}},
	}
	for i, c := range cases {
		p := encodeDelta(nil, c.epoch, c.adds, c.retracts)
		d, err := decodeDelta(p)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if d.epoch != c.epoch {
			t.Fatalf("case %d: epoch %d, want %d", i, d.epoch, c.epoch)
		}
		if !reflect.DeepEqual(renderFacts(d.adds), renderFacts(c.adds)) {
			t.Fatalf("case %d: adds %v, want %v", i, d.adds, c.adds)
		}
		if !reflect.DeepEqual(renderFacts(d.retracts), renderFacts(c.retracts)) {
			t.Fatalf("case %d: retracts %v, want %v", i, d.retracts, c.retracts)
		}
	}
}

func TestDecodeDeltaRejectsCorruption(t *testing.T) {
	good := encodeDelta(nil, 7, []wfs.FactRef{{Pred: "p", Args: []string{"a"}}}, nil)
	if _, err := decodeDelta(nil); err == nil {
		t.Error("empty payload: want error")
	}
	if _, err := decodeDelta([]byte{0x7f}); err == nil {
		t.Error("unknown kind byte: want error")
	}
	if _, err := decodeDelta(append(append([]byte(nil), good...), 0x00)); err == nil {
		t.Error("trailing bytes: want error")
	}
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodeDelta(good[:cut]); err == nil {
			t.Errorf("truncation at %d: want error", cut)
		}
	}
}

func TestScanFramesBoundaries(t *testing.T) {
	var buf []byte
	var bounds []int64 // valid truncation points
	bounds = append(bounds, 0)
	for i := 1; i <= 5; i++ {
		buf = appendFrame(buf, encodeDelta(nil, uint64(i), []wfs.FactRef{{Pred: "p", Args: []string{fmt.Sprint(i)}}}, nil))
		bounds = append(bounds, int64(len(buf)))
	}
	for cut := 0; cut <= len(buf); cut++ {
		var n int
		valid, torn, fnErr := scanFrames(buf[:cut], func([]byte) error { n++; return nil })
		if fnErr != nil {
			t.Fatalf("cut %d: fn error %v", cut, fnErr)
		}
		// valid must be the largest record boundary ≤ cut, n its index.
		wantValid, wantN := int64(0), 0
		for i, b := range bounds {
			if b <= int64(cut) {
				wantValid, wantN = b, i
			}
		}
		if valid != wantValid || n != wantN {
			t.Fatalf("cut %d: valid=%d records=%d, want %d/%d", cut, valid, n, wantValid, wantN)
		}
		if wantTorn := int64(cut) != wantValid; torn != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v", cut, torn, wantTorn)
		}
	}
	// A flipped payload bit is a CRC failure, not just a short read.
	corrupt := append([]byte(nil), buf...)
	corrupt[bounds[2]+frameHeader] ^= 0x01
	valid, torn, _ := scanFrames(corrupt, func([]byte) error { return nil })
	if !torn || valid != bounds[2] {
		t.Fatalf("bit flip: valid=%d torn=%v, want %d/true", valid, torn, bounds[2])
	}
}

func TestAppendRejectsEpochGap(t *testing.T) {
	_, sys, l := openLogged(t, t.TempDir(), Options{}, "s", winMove)
	if err := sys.AddFact("move", "c", "d"); err != nil { // epoch 1, logged
		t.Fatalf("AddFact: %v", err)
	}
	if err := l.Append(5, []wfs.FactRef{{Pred: "move", Args: []string{"x", "y"}}}, nil); err == nil {
		t.Fatal("append with epoch gap: want error")
	}
	if err := l.Append(1, nil, nil); err == nil {
		t.Fatal("append replaying an old epoch: want error")
	}
}

func TestCreateRejectsExistingLog(t *testing.T) {
	dir := t.TempDir()
	man, _, _ := openLogged(t, dir, Options{}, "s", winMove)
	if _, err := man.Create("s", Checkpoint{Source: winMove}); err == nil {
		t.Fatal("Create over an existing log: want error")
	}
}

// TestCrashTruncationSweep simulates a crash at EVERY byte offset of the
// live segment: the truncated prefix must recover to exactly the
// mutations whose records survived whole — torn tails dropped, no
// partial delta ever applied — and the repaired log must equal the
// consistent prefix.
func TestCrashTruncationSweep(t *testing.T) {
	const nMut = 6
	src := "p(x0).\n"
	base := t.TempDir()
	man, sys, _ := openLogged(t, base, Options{}, "s", src)
	for i := 1; i <= nMut; i++ {
		if err := sys.AddFact("p", fmt.Sprintf("x%d", i)); err != nil {
			t.Fatalf("AddFact %d: %v", i, err)
		}
	}
	if err := man.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	sessDir := man.sessionDir("s")
	segs, _, err := listByEpoch(osFS{}, sessDir, segSuffix)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%v)", segs, err)
	}
	segData, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Record boundaries of the intact log.
	bounds := []int64{0}
	if _, torn, _ := scanFrames(segData, func([]byte) error { return nil }); torn {
		t.Fatal("intact log reports torn")
	}
	for cut := 1; cut <= len(segData); cut++ {
		v, _, _ := scanFrames(segData[:cut], func([]byte) error { return nil })
		if v == int64(cut) {
			bounds = append(bounds, v)
		}
	}
	if len(bounds) != nMut+1 {
		t.Fatalf("found %d record boundaries, want %d", len(bounds)-1, nMut)
	}

	for cut := 0; cut <= len(segData); cut++ {
		crash := t.TempDir()
		crashSess := filepath.Join(crash, "sessions", filepath.Base(sessDir))
		if err := os.MkdirAll(crashSess, 0o755); err != nil {
			t.Fatal(err)
		}
		ents, _ := os.ReadDir(sessDir)
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(sessDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(e.Name(), segSuffix) {
				data = data[:cut]
			}
			if err := os.WriteFile(filepath.Join(crashSess, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		man2, err := Open(crash, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		recs, skipped, err := man2.Recover()
		if err != nil || len(skipped) != 0 || len(recs) != 1 {
			t.Fatalf("cut %d: Recover: recs=%d skipped=%v err=%v", cut, len(recs), skipped, err)
		}
		rec := recs[0]

		wantEpoch, wantValid := uint64(0), int64(0)
		for i, b := range bounds {
			if b <= int64(cut) {
				wantEpoch, wantValid = uint64(i), b
			}
		}
		if rec.Sys.Epoch() != wantEpoch {
			t.Fatalf("cut %d: recovered epoch %d, want %d", cut, rec.Sys.Epoch(), wantEpoch)
		}
		if rec.Replayed != int(wantEpoch) {
			t.Fatalf("cut %d: replayed %d, want %d", cut, rec.Replayed, wantEpoch)
		}
		if wantTorn := int64(cut) != wantValid; rec.TornTail != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v", cut, rec.TornTail, wantTorn)
		}
		// Exactly the facts whose records survived whole — never a
		// partial batch.
		facts, _ := rec.Sys.DumpState()
		want := []string{"p(x0)"}
		for i := uint64(1); i <= wantEpoch; i++ {
			want = append(want, fmt.Sprintf("p(x%d)", i))
		}
		sort.Strings(want)
		if got := renderFacts(facts); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: facts %v, want %v", cut, got, want)
		}
		// The repaired segment is the consistent prefix (or gone).
		if wantValid == 0 {
			if segs, _, _ := listByEpoch(osFS{}, crashSess, segSuffix); len(segs) != 0 {
				t.Fatalf("cut %d: want no segments after repair, got %v", cut, segs)
			}
		} else {
			repaired, err := os.ReadFile(filepath.Join(crashSess, filepath.Base(segs[0])))
			if err != nil || int64(len(repaired)) != wantValid {
				t.Fatalf("cut %d: repaired segment %d bytes, want %d (%v)", cut, len(repaired), wantValid, err)
			}
		}
		// The reopened log accepts the next contiguous epoch.
		rec.Sys.SetCommitHook(func(e uint64, adds, retracts []wfs.FactRef) error {
			return rec.Log.Append(e, adds, retracts)
		})
		if err := rec.Sys.AddFact("p", "post"); err != nil {
			t.Fatalf("cut %d: post-recovery mutation: %v", cut, err)
		}
		man2.Close()
	}
}

// TestCrossCheckRandomScripts drives random add/retract/CSV scripts
// through a logged system, then recovers from the log alone and checks
// the replayed state is identical — database, epoch, and the full
// three-valued model. A mid-script checkpoint exercises rotation and GC
// in the middle of the history.
func TestCrossCheckRandomScripts(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			man, sys, l := openLogged(t, dir, Options{CheckpointBytes: -1}, "x", winMove)

			live := map[string]int{} // move-fact multiset, key "a b"
			for _, k := range []string{"a b", "b a", "b c"} {
				live[k] = 1
			}
			keys := func() []string {
				ks := make([]string, 0, len(live))
				for k := range live {
					ks = append(ks, k)
				}
				sort.Strings(ks)
				return ks
			}
			next := 0
			const ops = 60
			for op := 0; op < ops; op++ {
				switch c := rng.Intn(10); {
				case c < 4: // add a fresh fact
					a, b := fmt.Sprintf("n%d", next), fmt.Sprintf("n%d", next+1)
					next += 2
					if err := sys.AddFact("move", a, b); err != nil {
						t.Fatalf("op %d add: %v", op, err)
					}
					live[a+" "+b]++
				case c < 6: // duplicate an existing fact (multiset)
					ks := keys()
					k := ks[rng.Intn(len(ks))]
					f := strings.Fields(k)
					if err := sys.AddFact("move", f[0], f[1]); err != nil {
						t.Fatalf("op %d dup: %v", op, err)
					}
					live[k]++
				case c < 8: // retract (removes every occurrence)
					if len(live) <= 1 {
						continue
					}
					ks := keys()
					k := ks[rng.Intn(len(ks))]
					f := strings.Fields(k)
					if err := sys.RetractFact("move", f[0], f[1]); err != nil {
						t.Fatalf("op %d retract %s: %v", op, k, err)
					}
					delete(live, k)
				default: // CSV batch
					var rows []string
					for i := 0; i < 1+rng.Intn(3); i++ {
						a, b := fmt.Sprintf("n%d", next), fmt.Sprintf("n%d", next+1)
						next += 2
						rows = append(rows, a+","+b)
						live[a+" "+b]++
					}
					if _, err := sys.LoadCSV("move", strings.NewReader(strings.Join(rows, "\n")+"\n")); err != nil {
						t.Fatalf("op %d csv: %v", op, err)
					}
				}
				if op == ops/2 {
					if err := l.Checkpoint(func() Checkpoint {
						facts, epoch := sys.DumpState()
						return Checkpoint{Source: winMove, Options: wfs.Options{}, Epoch: epoch, Facts: facts}
					}); err != nil {
						t.Fatalf("mid-script checkpoint: %v", err)
					}
				}
			}
			if err := man.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			man2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			recs, skipped, err := man2.Recover()
			if err != nil || len(skipped) != 0 || len(recs) != 1 {
				t.Fatalf("Recover: recs=%d skipped=%v err=%v", len(recs), skipped, err)
			}
			rec := recs[0]
			if rec.TornTail {
				t.Fatal("clean log reported a torn tail")
			}
			requireSameState(t, sys, rec.Sys)
			man2.Close()
		})
	}
}

// TestCheckpointGC: a checkpoint supersedes the rotated-out segments and
// older checkpoints; recovery afterwards replays only the tail.
func TestCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	man, sys, l := openLogged(t, dir, Options{CheckpointBytes: -1}, "s", winMove)
	for i := 0; i < 5; i++ {
		if err := sys.AddFact("move", "c", fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	dump := func() Checkpoint {
		facts, epoch := sys.DumpState()
		return Checkpoint{Source: winMove, Options: wfs.Options{}, Epoch: epoch, Facts: facts}
	}
	if err := l.Checkpoint(dump); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	sessDir := man.sessionDir("s")
	if segs, _, _ := listByEpoch(osFS{}, sessDir, segSuffix); len(segs) != 0 {
		t.Fatalf("segments after checkpoint: %v", segs)
	}
	cks, eps, _ := listByEpoch(osFS{}, sessDir, ckptSuffix)
	if len(cks) != 1 || eps[0] != 5 {
		t.Fatalf("checkpoints after GC: %v at %v", cks, eps)
	}
	// Two more mutations land in a fresh segment; recovery replays just 2.
	for i := 5; i < 7; i++ {
		if err := sys.AddFact("move", "c", fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	man.Close()
	man2, _ := Open(dir, Options{})
	recs, _, err := man2.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("Recover: %v", err)
	}
	if recs[0].CheckpointEpoch != 5 || recs[0].Replayed != 2 {
		t.Fatalf("ckpt epoch %d replayed %d, want 5/2", recs[0].CheckpointEpoch, recs[0].Replayed)
	}
	requireSameState(t, sys, recs[0].Sys)
	man2.Close()
}

// TestCheckpointFallback: if the newest checkpoint file is corrupt,
// recovery falls back to an older one and replays the longer tail.
func TestCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	man, sys, _ := openLogged(t, dir, Options{}, "s", winMove)
	for i := 0; i < 3; i++ {
		if err := sys.AddFact("move", "c", fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	man.Close()
	// Plant a corrupt "newer" checkpoint, as a torn disk would.
	bad := filepath.Join(man.sessionDir("s"), ckptName(2))
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	man2, _ := Open(dir, Options{})
	recs, skipped, err := man2.Recover()
	if err != nil || len(skipped) != 0 || len(recs) != 1 {
		t.Fatalf("Recover: recs=%d skipped=%v err=%v", len(recs), skipped, err)
	}
	if recs[0].CheckpointEpoch != 0 || recs[0].Replayed != 3 {
		t.Fatalf("fallback: ckpt epoch %d replayed %d, want 0/3", recs[0].CheckpointEpoch, recs[0].Replayed)
	}
	requireSameState(t, sys, recs[0].Sys)
	man2.Close()
}

// parentCheckpoint is a checkpoint payload byte-for-byte as the release
// before the WFS-algorithm knob was retired wrote it: winMove plus
// move(c,d) at epoch 1, in a session created with "algorithm":
// "remainder" — hence "Algorithm":3 in its options.
const parentCheckpoint = `{"name":"old","source":"move(X,Y), not win(Y) -\u003e win(X).\nmove(a,b). move(b,a). move(b,c).\n","options":{"Depth":0,"MaxAtoms":0,"Algorithm":3,"Parallelism":0,"AdaptiveStart":0,"AdaptiveStep":0,"StabilityWindow":0,"MaxDepth":0,"GuardBand":0,"CertifiedDepth":0,"NoCertify":false},"epoch":1,"facts":[{"pred":"move","args":["a","b"]},{"pred":"move","args":["b","a"]},{"pred":"move","args":["b","c"]},{"pred":"move","args":["c","d"]}],"written_at_unix_nano":1760000000000000000}`

// TestRecoverCheckpointWithRetiredAlgorithm: a data directory written
// before the algorithm option was removed still recovers. The unknown
// "Algorithm" key is ignored, the session answers exactly as it did
// (the release that wrote it answered win(a), win(b) undefined, win(c)
// true, win(d) false), and its log keeps accepting and replaying
// mutations.
func TestRecoverCheckpointWithRetiredAlgorithm(t *testing.T) {
	dir := t.TempDir()
	man, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sdir := man.sessionDir("old")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	frame := appendFrame(nil, []byte(parentCheckpoint))
	if err := os.WriteFile(filepath.Join(sdir, ckptName(1)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := man.Recover()
	if err != nil || len(skipped) != 0 || len(recs) != 1 {
		t.Fatalf("Recover: recs=%d skipped=%v err=%v", len(recs), skipped, err)
	}
	rec := recs[0]
	if rec.Name != "old" || rec.CheckpointEpoch != 1 || rec.Sys.Epoch() != 1 {
		t.Fatalf("recovered %q at checkpoint epoch %d, system epoch %d", rec.Name, rec.CheckpointEpoch, rec.Sys.Epoch())
	}
	if rec.Options != (wfs.Options{}) {
		t.Errorf("options = %+v, want the defaults the old session ran with", rec.Options)
	}
	for atom, want := range map[string]wfs.Truth{"win(a)": wfs.Undefined, "win(b)": wfs.Undefined, "win(c)": wfs.True, "win(d)": wfs.False} {
		if got, err := rec.Sys.TruthOf(atom); err != nil || got != want {
			t.Errorf("%s = %v (%v), want %v", atom, got, err, want)
		}
	}

	rec.Sys.SetCommitHook(func(e uint64, adds, retracts []wfs.FactRef) error {
		return rec.Log.Append(e, adds, retracts)
	})
	if err := rec.Sys.AddFact("move", "d", "e"); err != nil {
		t.Fatal(err)
	}
	man.Close()
	man2, _ := Open(dir, Options{})
	defer man2.Close()
	recs, _, err = man2.Recover()
	if err != nil || len(recs) != 1 || recs[0].Replayed != 1 {
		t.Fatalf("second Recover: recs=%v err=%v", recs, err)
	}
	want, err := wfs.Load(winMove)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.AddFact("move", "c", "d"); err != nil { // epoch 1, the checkpoint
		t.Fatal(err)
	}
	if err := want.AddFact("move", "d", "e"); err != nil { // epoch 2, the replayed tail
		t.Fatal(err)
	}
	requireSameState(t, want, recs[0].Sys)
}

// TestCleanCloseReplaysNothing: checkpoint-then-close (what the server
// does on graceful shutdown) leaves a log whose recovery replays zero
// records.
func TestCleanCloseReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	man, sys, l := openLogged(t, dir, Options{}, "s", winMove)
	for i := 0; i < 4; i++ {
		if err := sys.AddFact("move", "c", fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(func() Checkpoint {
		facts, epoch := sys.DumpState()
		return Checkpoint{Source: winMove, Options: wfs.Options{}, Epoch: epoch, Facts: facts}
	}); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := man.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	man2, _ := Open(dir, Options{})
	recs, _, err := man2.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("Recover: %v", err)
	}
	if recs[0].Replayed != 0 || recs[0].TornTail {
		t.Fatalf("clean restart: replayed %d torn %v, want 0/false", recs[0].Replayed, recs[0].TornTail)
	}
	requireSameState(t, sys, recs[0].Sys)
	man2.Close()
}

// TestRecoveredSchemaMatchesLive: recovery takes the database from the
// checkpoint but the schema from the source, so a predicate known only
// from source facts keeps its arity after every one of its facts is
// retracted, and the live and the recovered session reject the same
// wrong-arity add and the same wrong-arity query with the same error.
func TestRecoveredSchemaMatchesLive(t *testing.T) {
	const src = winMove + "color(a, red). color(b, blue).\n"
	dir := t.TempDir()
	man, live, l := openLogged(t, dir, Options{}, "s", src)
	if err := live.Apply(wfs.NewDelta().Retract("color", "a", "red").Retract("color", "b", "blue")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(func() Checkpoint {
		facts, epoch := live.DumpState()
		return Checkpoint{Source: src, Options: wfs.Options{}, Epoch: epoch, Facts: facts}
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	man.Close()
	man2, _ := Open(dir, Options{})
	defer man2.Close()
	recs, _, err := man2.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("Recover: recs=%d err=%v", len(recs), err)
	}
	recovered := recs[0].Sys
	requireSameState(t, live, recovered)
	errs := func(sys *wfs.System) (add, query error) {
		_, query = sys.Answer("? color(X).")
		return sys.AddFact("color", "c"), query
	}
	liveAdd, liveQuery := errs(live)
	recAdd, recQuery := errs(recovered)
	if liveAdd == nil || liveQuery == nil {
		t.Fatalf("live session accepted color/1: add %v, query %v", liveAdd, liveQuery)
	}
	if recAdd == nil || recAdd.Error() != liveAdd.Error() {
		t.Errorf("recovered add error %v, want %v", recAdd, liveAdd)
	}
	if recQuery == nil || recQuery.Error() != liveQuery.Error() {
		t.Errorf("recovered query error %v, want %v", recQuery, liveQuery)
	}
}

func TestManagerRemove(t *testing.T) {
	dir := t.TempDir()
	man, sys, _ := openLogged(t, dir, Options{}, "gone", winMove)
	if err := sys.AddFact("move", "c", "d"); err != nil {
		t.Fatal(err)
	}
	if err := man.Remove("gone"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(man.sessionDir("gone")); !os.IsNotExist(err) {
		t.Fatalf("session dir survives Remove: %v", err)
	}
	// Appends through the stale hook now fail — the mutation is rejected,
	// not silently unlogged.
	if err := sys.AddFact("move", "c", "e"); err == nil {
		t.Fatal("mutation after Remove: want commit-hook error")
	}
	man2, _ := Open(dir, Options{})
	recs, skipped, err := man2.Recover()
	if err != nil || len(recs) != 0 || len(skipped) != 0 {
		t.Fatalf("Recover after Remove: recs=%d skipped=%v err=%v", len(recs), skipped, err)
	}
}

func TestNeedCheckpointThresholds(t *testing.T) {
	dir := t.TempDir()
	// Each record below takes 23 bytes of log: the threshold is three.
	_, sys, l := openLogged(t, dir, Options{CheckpointBytes: 3 * 23}, "s", winMove)
	for i := 0; i < 2; i++ {
		if err := sys.AddFact("move", "c", fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
		if l.NeedCheckpoint() {
			t.Fatalf("NeedCheckpoint true after %d records, threshold 3", i+1)
		}
	}
	if err := sys.AddFact("move", "c", "d2"); err != nil {
		t.Fatal(err)
	}
	if !l.NeedCheckpoint() {
		t.Fatal("NeedCheckpoint false after crossing the byte threshold")
	}
}

// TestFsyncBucketsMatchCounters pins the histogram array length to the
// exported bucket bounds (+1 overflow slot).
func TestFsyncBucketsMatchCounters(t *testing.T) {
	var m Metrics
	if got, want := len(m.fsyncBuckets), len(FsyncBuckets)+1; got != want {
		t.Fatalf("fsyncBuckets has %d slots, want %d (len(FsyncBuckets)+1)", got, want)
	}
}

// TestMetricsAccounting: appended/checkpoint/replay counters move as the
// log is exercised.
func TestMetricsAccounting(t *testing.T) {
	dir := t.TempDir()
	man, sys, l := openLogged(t, dir, Options{Fsync: true, CheckpointBytes: -1}, "s", winMove)
	for i := 0; i < 3; i++ {
		if err := sys.AddFact("move", "c", fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := man.Metrics().Read()
	if snap.AppendedRecords != 3 || snap.AppendedBytes == 0 {
		t.Fatalf("appended: %+v", snap)
	}
	if snap.Fsyncs != 3 {
		t.Fatalf("fsyncs %d, want 3", snap.Fsyncs)
	}
	if snap.Checkpoints != 1 { // the Create-time checkpoint
		t.Fatalf("checkpoints %d, want 1", snap.Checkpoints)
	}
	if err := l.Checkpoint(func() Checkpoint {
		facts, epoch := sys.DumpState()
		return Checkpoint{Source: winMove, Epoch: epoch, Facts: facts}
	}); err != nil {
		t.Fatal(err)
	}
	if got := man.Metrics().Read().Checkpoints; got != 2 {
		t.Fatalf("checkpoints %d, want 2", got)
	}
	man.Close()

	man2, _ := Open(dir, Options{})
	if _, _, err := man2.Recover(); err != nil {
		t.Fatal(err)
	}
	rsnap := man2.Metrics().Read()
	if rsnap.RecoveredSessions != 1 || rsnap.ReplayedRecords != 0 {
		t.Fatalf("recovery metrics: %+v", rsnap)
	}
	man2.Close()
}

// appendFrame appends one framed payload to dst and returns the
// extended slice.
func appendFrame(dst, payload []byte) []byte {
	buf, start := openFrame(dst)
	return sealFrame(append(buf, payload...), start)
}

// TestRecoverStopsAtUnappliableRecord: a log whose k-th record decodes
// but cannot apply to the state the records before it left — here it
// retracts a fact that is not in the database — recovers at epoch k−1,
// truncated at that record's first byte (later segments dropped), and
// the reopened log accepts epoch k. The tail spans two segments, so the
// failing record sits at a segment start, in the middle, and at the end.
func TestRecoverStopsAtUnappliableRecord(t *testing.T) {
	const nRec, split = 6, 3 // records 1..3 in one segment, 4..6 in the next
	add := func(i int) []wfs.FactRef {
		return []wfs.FactRef{{Pred: "move", Args: []string{"c", fmt.Sprint("d", i)}}}
	}
	for k := 1; k <= nRec; k++ {
		dir := t.TempDir()
		man, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := man.Create("s", Checkpoint{Source: winMove, Facts: mustDump(t, winMove)}); err != nil {
			t.Fatal(err)
		}
		man.Close()
		sdir := man.sessionDir("s")
		var segs [2][]byte
		var starts [nRec + 1]int // record i's offset in its segment
		for i := 1; i <= nRec; i++ {
			adds, retracts := add(i), []wfs.FactRef(nil)
			if i == k {
				adds, retracts = nil, []wfs.FactRef{{Pred: "move", Args: []string{"z", "z"}}}
			}
			s := &segs[(i-1)/split]
			starts[i] = len(*s)
			*s = appendFrame(*s, encodeDelta(nil, uint64(i), adds, retracts))
		}
		for j, first := range []uint64{1, split + 1} {
			if err := os.WriteFile(filepath.Join(sdir, segName(first)), segs[j], 0o644); err != nil {
				t.Fatal(err)
			}
		}

		man2, _ := Open(dir, Options{})
		recs, skipped, err := man2.Recover()
		if err != nil || len(skipped) != 0 || len(recs) != 1 {
			t.Fatalf("k=%d: Recover: recs=%d skipped=%v err=%v", k, len(recs), skipped, err)
		}
		rec := recs[0]
		if got := rec.Sys.Epoch(); got != uint64(k-1) || rec.Replayed != k-1 || !rec.TornTail {
			t.Fatalf("k=%d: epoch %d replayed %d torn %v, want %d/%d/true", k, got, rec.Replayed, rec.TornTail, k-1, k-1)
		}
		// The segment holding record k ends where record k began (or is
		// gone when k was its first record), and no later segment is left.
		left, _, _ := listByEpoch(osFS{}, sdir, segSuffix)
		var sizes []int
		for _, p := range left {
			data, _ := os.ReadFile(p)
			sizes = append(sizes, len(data))
		}
		var want []int
		if k > split {
			want = append(want, len(segs[0]))
		}
		if starts[k] > 0 {
			want = append(want, starts[k])
		}
		if !reflect.DeepEqual(sizes, want) {
			t.Fatalf("k=%d: segments left %v with sizes %v, want sizes %v", k, left, sizes, want)
		}

		rec.Sys.SetCommitHook(func(e uint64, adds, retracts []wfs.FactRef) error {
			return rec.Log.Append(e, adds, retracts)
		})
		if err := rec.Sys.AddFact("move", "c", "post"); err != nil {
			t.Fatalf("k=%d: post-recovery mutation: %v", k, err)
		}
		man2.Close()
		man3, _ := Open(dir, Options{})
		recs, _, err = man3.Recover()
		if err != nil || len(recs) != 1 || recs[0].TornTail || recs[0].Replayed != k {
			t.Fatalf("k=%d: second Recover: recs=%v err=%v", k, recs, err)
		}
		requireSameState(t, rec.Sys, recs[0].Sys)
		man3.Close()
	}
}

// mustDump returns the database src loads as a checkpoint fact list.
func mustDump(t *testing.T, src string) []wfs.FactRef {
	t.Helper()
	sys, err := wfs.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	facts, _ := sys.DumpState()
	return facts
}

// TestCheckpointRoundTrip: a binary checkpoint decodes to what was
// encoded, its options included, and re-encodes to the same bytes.
func TestCheckpointRoundTrip(t *testing.T) {
	for i, ck := range []Checkpoint{
		{},
		{Name: "s", Source: winMove, Epoch: 7, WrittenAtUnixNano: 1760000000000000000, Facts: mustDump(t, winMove)},
		{Name: "näme/日本", Source: "flag.\n", Options: wfs.Options{Depth: 3, MaxAtoms: 10}, Epoch: 1 << 40,
			WrittenAtUnixNano: -1, Facts: []wfs.FactRef{{Pred: "flag"}, {Pred: "p", Args: []string{"", "\x00\xff"}}}},
	} {
		opts, err := json.Marshal(ck.Options)
		if err != nil {
			t.Fatal(err)
		}
		if n, want := factsSize(ck.Facts), len(appendFacts(nil, ck.Facts)); n != want {
			t.Fatalf("case %d: factsSize = %d, encoding is %d bytes", i, n, want)
		}
		p := appendCheckpoint(nil, ck, opts)
		got, gotOpts, err := decodeCheckpoint(p)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, ck) {
			t.Fatalf("case %d: decoded %+v, want %+v", i, got, ck)
		}
		if again := appendCheckpoint(nil, got, gotOpts); !bytes.Equal(again, p) {
			t.Fatalf("case %d: re-encoding differs", i)
		}
		for cut := 0; cut < len(p); cut++ {
			if _, _, err := decodeCheckpoint(p[:cut]); err == nil {
				t.Fatalf("case %d: truncation at %d decodes", i, cut)
			}
		}
	}
}

func TestUvarintSize(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		if got, want := uvarintSize(x), len(binary.AppendUvarint(nil, x)); got != want {
			t.Errorf("uvarintSize(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestCheckpointWrittenBinary: checkpoints are written in the binary
// format, and the legacy JSON one still reads to the same checkpoint.
func TestCheckpointWrittenBinary(t *testing.T) {
	dir := t.TempDir()
	man, sys, _ := openLogged(t, dir, Options{}, "s", winMove)
	man.Close()
	cks, _, _ := listByEpoch(osFS{}, man.sessionDir("s"), ckptSuffix)
	data, err := os.ReadFile(cks[0])
	if err != nil || len(data) <= frameHeader || data[frameHeader] != recCheckpoint {
		t.Fatalf("checkpoint file does not hold a binary checkpoint (%v)", err)
	}
	ck, err := readCheckpoint(osFS{}, cks[0])
	if err != nil {
		t.Fatal(err)
	}
	facts, _ := sys.DumpState()
	if ck.Name != "s" || ck.Source != winMove || !reflect.DeepEqual(ck.Facts, facts) {
		t.Fatalf("read back %+v", ck)
	}
	legacy, _, err := decodeCheckpoint([]byte(parentCheckpoint))
	if err != nil || legacy.Name != "old" || legacy.Epoch != 1 || len(legacy.Facts) != 4 {
		t.Fatalf("legacy checkpoint: %+v, %v", legacy, err)
	}
}
