package wfs

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bench"
)

// chainSrc builds d0(c1). d0(c2). and a chain of `links` unary rules
// d0 → d1 → … → d<links>. Guard-acyclic with certified depth = links.
func chainSrc(links int) string {
	var b strings.Builder
	b.WriteString("d0(c1). d0(c2).\n")
	for i := 0; i < links; i++ {
		fmt.Fprintf(&b, "d%d(X) -> d%d(X).\n", i, i+1)
	}
	return b.String()
}

// TestCertifiedChainRendersEverything is the certified counterpart of
// TestTrueFactsRespectGuardBand: the d0→…→d12 chain certifies at depth
// 12, so the engine runs one exact rung with no guard band, the chase
// saturates exactly at the bound, and no true fact may be withheld —
// neither from TrueFacts nor from Select.
func TestCertifiedChainRendersEverything(t *testing.T) {
	const links = 12
	sys, err := Load(chainSrc(links))
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Analysis()
	if rep == nil || rep.Certificate == nil {
		t.Fatal("chain program did not certify")
	}
	if rep.Certificate.DepthBound != links {
		t.Fatalf("certified bound = %d, want %d", rep.Certificate.DepthBound, links)
	}

	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := snap.Stats()
	if !st.Model.Exact || st.Model.UsableDepth >= 0 {
		t.Fatalf("certified model not exact: %+v", st.Model)
	}

	// Every true atom renders, and Select sees each of them.
	facts := snap.TrueFacts()
	if len(facts) != st.Model.TrueAtoms {
		t.Fatalf("rendered %d facts of %d true atoms — certified model must hide nothing",
			len(facts), st.Model.TrueAtoms)
	}
	// 2 constants times (links+1) predicates.
	if want := 2 * (links + 1); len(facts) != want {
		t.Fatalf("chain derived %d facts, want %d", len(facts), want)
	}
	for _, f := range facts {
		open := strings.IndexByte(f, '(')
		pred := f[:open]
		arg := strings.TrimSuffix(f[open+1:], ")")
		q, err := Prepare(fmt.Sprintf("? %s(X).", pred))
		if err != nil {
			t.Fatal(err)
		}
		_, rows, err := snap.Select(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, row := range rows {
			if row[0] == arg {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("TrueFacts rendered %s, which Select cannot see", f)
		}
	}

	// The deep tail is directly queryable — under the heuristic ladder
	// with the default MaxDepth this atom sits inside the guard band.
	if tv, err := sys.Answer(fmt.Sprintf("? d%d(c1).", links)); err != nil || tv != True {
		t.Errorf("d%d(c1) = %v (%v), want true", links, tv, err)
	}
}

// TestCertifiedAnswerSingleRung: on a certified program, adaptive
// deepening collapses to one rung at the certified depth and reports the
// answer exact — no ladder, no stability window.
func TestCertifiedAnswerSingleRung(t *testing.T) {
	const links = 12
	sys, err := Load(chainSrc(links))
	if err != nil {
		t.Fatal(err)
	}
	ans, stats, err := sys.AnswerWithStats(fmt.Sprintf("? d%d(c2).", links))
	if err != nil {
		t.Fatal(err)
	}
	if ans != True {
		t.Fatalf("answer = %v, want true", ans)
	}
	if !stats.Exact {
		t.Fatalf("certified answer not exact: %+v", stats)
	}
	if len(stats.Depths) != 1 || stats.FinalDepth != links {
		t.Fatalf("ladder = %v (final %d), want single rung at %d",
			stats.Depths, stats.FinalDepth, links)
	}

	// The same program with NoCertify climbs the heuristic ladder.
	unc, err := LoadWithOptions(chainSrc(links), Options{NoCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	_, ustats, err := unc.AnswerWithStats(fmt.Sprintf("? d%d(c2).", links))
	if err != nil {
		t.Fatal(err)
	}
	if len(ustats.Depths) <= 1 {
		t.Fatalf("uncertified ladder took %v — expected multiple rungs", ustats.Depths)
	}
}

// TestUncertifiedLadderStableButWrongFalse pins the incompleteness the
// certificate removes (DESIGN.md §6, "The stable-but-wrong False,
// worked"). d12(c2) sits at chase depth 12. Without the certificate the
// adaptive ladder asks for it on rungs 4, 6 and 8, none of which has
// chased that deep, so each answers False. Two agreeing rungs meet the
// default stability window, and the ladder stops on a stable False that
// is not exact. The certified load answers True, exactly, on the single
// rung 12. A window wider than the schedule lets the heuristic ladder
// climb to rung 14, where the chase visibly saturates.
func TestUncertifiedLadderStableButWrongFalse(t *testing.T) {
	const links = 12
	query := fmt.Sprintf("? d%d(c2).", links)
	answer := func(opts Options) (Truth, []int, bool, bool) {
		t.Helper()
		sys, err := LoadWithOptions(chainSrc(links), opts)
		if err != nil {
			t.Fatal(err)
		}
		ans, stats, err := sys.AnswerWithStats(query)
		if err != nil {
			t.Fatal(err)
		}
		return ans, stats.Depths, stats.Stable, stats.Exact
	}

	ans, depths, stable, exact := answer(Options{NoCertify: true})
	if ans != False || !slices.Equal(depths, []int{4, 6, 8}) || !stable {
		t.Errorf("uncertified: %v on rungs %v (stable=%v), want a stable False on [4 6 8]", ans, depths, stable)
	}
	if exact {
		t.Errorf("uncertified: the wrong False claims Exact")
	}

	ans, depths, _, exact = answer(Options{})
	if ans != True || !exact || !slices.Equal(depths, []int{links}) {
		t.Errorf("certified: %v on rungs %v (exact=%v), want an exact True on [%d]", ans, depths, exact, links)
	}

	ans, depths, _, exact = answer(Options{NoCertify: true, StabilityWindow: 99})
	if ans != True || !exact || !slices.Equal(depths, []int{4, 6, 8, 10, 12, 14}) {
		t.Errorf("uncertified, window 99: %v on rungs %v (exact=%v), want an exact True on [4 … 14]", ans, depths, exact)
	}
}

// TestCertifyRescuesSchedule: a guard band that would empty the heuristic
// schedule (GuardBand 30 > MaxDepth 24) loads anyway when certification
// collapses the schedule to the certified rung.
func TestCertifyRescuesSchedule(t *testing.T) {
	sys, err := LoadWithOptions(chainSrc(4), Options{GuardBand: 30})
	if err != nil {
		t.Fatalf("certified load rejected: %v", err)
	}
	if tv, err := sys.Answer("? d4(c1)."); err != nil || tv != True {
		t.Errorf("d4(c1) = %v (%v)", tv, err)
	}
}

// TestCertifiedBoundSoundOnBenchFamilies cross-checks every certified
// bench family: the certificate's depth bound must dominate the actual
// chase saturation depth, and evaluation at the bound must be exact.
func TestCertifiedBoundSoundOnBenchFamilies(t *testing.T) {
	families := map[string]string{
		"WinMoveChain":  bench.WinMoveChain(40),
		"WinMoveCycle":  bench.WinMoveCycle(30),
		"WinMoveRandom": bench.WinMoveRandom(120, 3, 7),
		"ReachChain":    bench.ReachChain(50),
		"ExpChase5":     bench.ExpChase(5),
		"Ladder4":       bench.LadderFamily(20, 4),
		"Update":        bench.UpdateFamily(60, 4),
	}
	for name, src := range families {
		t.Run(name, func(t *testing.T) {
			sys, err := Load(src)
			if err != nil {
				t.Fatal(err)
			}
			rep := sys.Analysis()
			if rep.Certificate == nil {
				t.Fatalf("%s did not certify; classes %v", name, rep.Classes)
			}
			k := rep.Certificate.DepthBound
			snap, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			st := snap.Stats()
			if !st.Model.Exact {
				t.Fatalf("certified model not exact: %+v", st.Model)
			}
			if st.Model.MaxDepthReached > k {
				t.Fatalf("chase reached depth %d beyond certified bound %d",
					st.Model.MaxDepthReached, k)
			}
		})
	}
}

// TestCertifiedBoundSoundRandomized fuzzes random guard-acyclic programs
// (layered unary/binary rules over a small EDB) and cross-checks the
// certificate against the actual chase: bound ≥ saturation depth, exact
// model, and every certified load agrees with its NoCertify twin on all
// ground atoms of the final layer.
func TestCertifiedBoundSoundRandomized(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for trial := 0; trial < 20; trial++ {
		layers := 2 + next(4)
		var b strings.Builder
		b.WriteString("p0(a, b). p0(b, c). p0(c, a).\n")
		for l := 0; l < layers; l++ {
			switch next(3) {
			case 0: // projection
				fmt.Fprintf(&b, "p%d(X, Y) -> p%d(Y, X).\n", l, l+1)
			case 1: // existential extension (still guard-acyclic)
				fmt.Fprintf(&b, "p%d(X, Y) -> p%d(Y, Z).\n", l, l+1)
			default: // join with a side atom over the same variables
				fmt.Fprintf(&b, "p%d(X, Y), p0(Y, X) -> p%d(X, Y).\n", l, l+1)
			}
		}
		src := b.String()
		sys, err := Load(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		rep := sys.Analysis()
		if rep.Certificate == nil {
			t.Fatalf("trial %d: layered program did not certify\n%s", trial, src)
		}
		k := rep.Certificate.DepthBound
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		st := snap.Stats()
		if !st.Model.Exact || st.Model.MaxDepthReached > k {
			t.Fatalf("trial %d: exact=%v reached=%d bound=%d\n%s",
				trial, st.Model.Exact, st.Model.MaxDepthReached, k, src)
		}

		// Ground truth agreement with the uncertified engine on the
		// final layer over the original constants.
		unc, err := LoadWithOptions(src, Options{NoCertify: true, MaxDepth: 40})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []string{"a", "b", "c"} {
			for _, y := range []string{"a", "b", "c"} {
				q := fmt.Sprintf("? p%d(%s, %s).", layers, x, y)
				got, err := sys.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := unc.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d: %s certified=%v uncertified=%v\n%s",
						trial, q, got, want, src)
				}
			}
		}
	}
}

// TestAnalysisOnBenchAndOntologyFamilies is the golden classification
// sweep: every generator family either certifies or lands in an
// explicitly expected class set, and none produces Error diagnostics.
func TestAnalysisOnBenchAndOntologyFamilies(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		certified int  // expected DepthBound; 0 = must not certify
		exact     bool // at least one termination class applies
	}{
		{"WinMoveChain", bench.WinMoveChain(20), 1, true},
		{"WinMoveCycle", bench.WinMoveCycle(15), 1, true},
		{"ReachChain", bench.ReachChain(30), 1, true},
		{"ExpChase4", bench.ExpChase(4), 4, true},
		{"Ladder3", bench.LadderFamily(10, 3), 3, true},
		{"Update", bench.UpdateFamily(40, 3), 1, true},
		{"Perm", bench.PermFamily(4), 0, true},              // no-existentials, guard self-loop
		{"Example4", bench.Example4, 0, false},              // genuinely transfinite
		{"Stratified", bench.StratifiedFamily(25), 2, true}, // seeker→benefits chain
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := Load(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			rep := sys.Analysis()
			if rep.HasErrors() {
				t.Fatalf("bench family has error diagnostics: %v", rep.Errors())
			}
			if tc.certified > 0 {
				if rep.Certificate == nil {
					t.Fatalf("expected certificate with bound %d, classes %v",
						tc.certified, rep.Classes)
				}
				if rep.Certificate.DepthBound != tc.certified {
					t.Fatalf("bound = %d, want %d", rep.Certificate.DepthBound, tc.certified)
				}
			} else if rep.Certificate != nil {
				t.Fatalf("unexpected certificate (bound %d)", rep.Certificate.DepthBound)
			}
			if rep.Terminates != tc.exact {
				t.Fatalf("Terminates = %v, want %v (classes %v)",
					rep.Terminates, tc.exact, rep.Classes)
			}
		})
	}
}

// TestAnalysisOnOntologyTranslation runs the pass over the DL-Lite
// employment ontology's Datalog± translation.
func TestAnalysisOnOntologyTranslation(t *testing.T) {
	src, err := bench.EmploymentFamily(12).ToDatalog()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Analysis()
	if rep.HasErrors() {
		t.Fatalf("ontology translation has error diagnostics: %v", rep.Errors())
	}
	if !rep.Terminates {
		t.Fatalf("DL-Lite translation should fall in a terminating class, got %v", rep.Classes)
	}
}

// TestAnalysisOverhead bounds the analysis pass at a small fraction of a
// cold load+snapshot on the update family.
func TestAnalysisOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	src := bench.UpdateFamily(400, 6)

	coldStart := time.Now()
	sys, err := LoadWithOptions(src, Options{NoCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(coldStart)

	const runs = 5
	aStart := time.Now()
	for i := 0; i < runs; i++ {
		analysis.Analyze(sys.prog, sys.db, sys.queries)
	}
	per := time.Since(aStart) / runs

	if cold > 0 && per*20 > cold {
		t.Fatalf("analysis %v exceeds 5%% of cold load %v", per, cold)
	}
}
