package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/program"
	"repro/internal/term"
)

// storeDump renders everything compilation interned, in ID order — the
// predicates, Skolem functors, terms and atoms — plus the compiled rules
// and the database.
func storeDump(prog *program.Program, db program.Database, st *atom.Store) string {
	var b strings.Builder
	for p := atom.PredID(0); int(p) < st.NumPreds(); p++ {
		fmt.Fprintf(&b, "pred %d %s/%d\n", p, st.PredName(p), st.PredArity(p))
	}
	for f := term.FunctorID(0); int(f) < st.Terms.NumFunctors(); f++ {
		fmt.Fprintf(&b, "functor %d %s/%d\n", f, st.Terms.FunctorName(f), st.Terms.FunctorArity(f))
	}
	for t := term.ID(0); int(t) < st.Terms.Len(); t++ {
		fmt.Fprintf(&b, "term %d %s %s\n", t, st.Terms.Kind(t), st.Terms.String(t))
	}
	for a := atom.AtomID(0); int(a) < st.Len(); a++ {
		fmt.Fprintf(&b, "atom %d %s\n", a, st.String(a))
	}
	b.WriteString(prog.String())
	fmt.Fprintln(&b, "db", db)
	return b.String()
}

// TestCompiledIDsGolden pins every ID compilation assigns: the digests of
// storeDump for each generator family and each example program were
// recorded when facts still compiled as body-less rules, so loading facts
// as data must intern the same predicates, terms and atoms in the same
// order.
func TestCompiledIDsGolden(t *testing.T) {
	employment, err := EmploymentFamily(30).ToDatalog()
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{
		"Example4":          Example4,
		"WinMoveChain":      WinMoveChain(50),
		"WinMoveCycle":      WinMoveCycle(20),
		"WinMoveRandom":     WinMoveRandom(40, 80, 3),
		"WinMoveComponents": WinMoveComponents(4, 6),
		"ReachChain":        ReachChain(30),
		"ExpChase":          ExpChase(4),
		"PermFamily":        PermFamily(4),
		"LadderFamily":      LadderFamily(5, 12),
		"UpdateFamily":      UpdateFamily(6, 7),
		"StratifiedFamily":  StratifiedFamily(40),
		"EmploymentFamily":  employment,
	}
	files, err := filepath.Glob("../../examples/*/*.dlg")
	if err != nil || len(files) == 0 {
		t.Fatalf("example programs: %v (%d found)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(data)
	}
	want := map[string]string{
		"EmploymentFamily":  "8bc7bcacbe045815",
		"Example4":          "a6fe38c07acf1b95",
		"ExpChase":          "6aea8079cd3afb0f",
		"LadderFamily":      "f6979dbbeb547bf5",
		"PermFamily":        "8da88013110e1d93",
		"ReachChain":        "e1fb30466a044c89",
		"StratifiedFamily":  "01683de2d6a58e4b",
		"UpdateFamily":      "a00b8a991fa37f00",
		"WinMoveChain":      "b69aa70bc3e02b93",
		"WinMoveComponents": "73007a0a7047ca4c",
		"WinMoveCycle":      "77a3203543ed8ca2",
		"WinMoveRandom":     "e18ac407908d68d7",
		"authorship.dlg":    "188a50ff3a255abe",
		"example4.dlg":      "a6fe38c07acf1b95",
		"game.dlg":          "30df298884475cd8",
	}
	for name, src := range srcs {
		prog, db, st := compileMust(src)
		sum := sha256.Sum256([]byte(storeDump(prog, db, st)))
		if got := hex.EncodeToString(sum[:8]); got != want[name] {
			t.Errorf("%s: store digest %s, want %s", name, got, want[name])
		}
	}
	if len(want) != len(srcs) {
		t.Errorf("%d digests for %d programs", len(want), len(srcs))
	}
}
