package main

import (
	"strings"
	"testing"

	wfs "repro"
)

func run(t *testing.T, base, input string) string {
	t.Helper()
	sys, err := wfs.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	repl(sys, base, strings.NewReader(input), &out)
	return out.String()
}

func TestReplStatementsAndQueries(t *testing.T) {
	out := run(t, "", `
move(a,b).
move(b,c).
move(X,Y), not win(Y) -> win(X).
? win(b).
?? win(X).
`)
	if !strings.Contains(out, "true") {
		t.Errorf("query answer missing:\n%s", out)
	}
	if !strings.Contains(out, "(1 tuples)") || !strings.Contains(out, "b") {
		t.Errorf("select output missing:\n%s", out)
	}
}

func TestReplCommands(t *testing.T) {
	base := "move(a,b).\nmove(X,Y), not win(Y) -> win(X).\n"
	out := run(t, base, `
:model
:stats
:check
:wcheck win(a)
:explain win(a)
:help
:nonsense
`)
	for _, want := range []string{
		"true atoms:",
		// :stats renders the snapshot model that :model and :check use.
		"chase: atoms=2 ",
		"2 true, 0 undefined, exact=true",
		"no violations",
		"win(a) is true (closure",
		"negative hypotheses",
		"commands:",
		"unknown command",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReplTraceToggle(t *testing.T) {
	base := "move(a,b).\nmove(X,Y), not win(Y) -> win(X).\n"
	out := run(t, base, `
:trace
:trace on
? win(a).
:trace off
? win(a).
`)
	if !strings.Contains(out, "tracing off (use :trace on|off)") {
		t.Errorf("bare :trace did not report state:\n%s", out)
	}
	if !strings.Contains(out, "tracing on") {
		t.Errorf(":trace on not acknowledged:\n%s", out)
	}
	// The traced query prints the phase tree; exactly one query ran traced.
	for _, want := range []string{"query", "ladder", "depth-"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "ladder"); got != 1 {
		t.Errorf(":trace off did not stop tracing (%d ladder lines):\n%s", got, out)
	}
}

func TestReplErrorsAndQuit(t *testing.T) {
	out := run(t, "", `
this is not valid syntax ->
? alsobad(
:quit
p(a).
`)
	if !strings.Contains(out, "error:") {
		t.Errorf("syntax error not surfaced:\n%s", out)
	}
	// :quit must stop processing: the trailing fact is never acknowledged.
	if strings.Count(out, "ok") != 0 {
		t.Errorf("input after :quit was processed:\n%s", out)
	}
}

func TestReplRetract(t *testing.T) {
	base := "move(a,b). move(b,a). move(b,c).\nmove(X,Y), not win(Y) -> win(X).\n"
	out := run(t, base, `
? win(b).
:retract move(b,c)
? win(b).
:retract move(z,z)
:retract win(X)
`)
	// Before retraction win(b) is true; after, the a↔b draw leaves it
	// undefined; bad targets report errors without crashing.
	if !strings.Contains(out, "true") || !strings.Contains(out, "undefined") {
		t.Errorf("retraction did not flip the answer:\n%s", out)
	}
	if strings.Count(out, "error:") != 2 {
		t.Errorf("bad retraction targets not both rejected:\n%s", out)
	}
}

func TestReplRetractSurvivesRebuild(t *testing.T) {
	base := "move(a,b). move(b,a). move(b,c).\nmove(X,Y), not win(Y) -> win(X).\n"
	out := run(t, base, `
:retract move(b,c)
move(c,d).
? win(b).
`)
	// The statement rebuilds the system from the accumulated source; the
	// earlier retraction must be replayed, so win(b) stays undefined
	// (only the a↔b cycle and the disconnected c→d edge remain).
	if !strings.Contains(out, "undefined") {
		t.Errorf("retraction lost across rebuild:\n%s", out)
	}
}

func TestReplReassertCancelsRetraction(t *testing.T) {
	base := "move(a,b). move(b,a). move(b,c).\nmove(X,Y), not win(Y) -> win(X).\n"
	out := run(t, base, `
:retract move(b,c)
move(b,c).
? win(b).
`)
	// Re-asserting the retracted fact cancels the pending retraction:
	// the user's latest word wins, so win(b) is true again.
	if !strings.Contains(out, "true") {
		t.Errorf("re-asserted fact was suppressed by retraction replay:\n%s", out)
	}
}

func TestReplCompoundReassertCancelsRetraction(t *testing.T) {
	base := "move(a,b). move(b,a). move(b,c).\nmove(X,Y), not win(Y) -> win(X).\n"
	out := run(t, base, `
:retract move(b,c)
move(b,c). move(e,f).
? win(b).
? win(e).
`)
	// The compound statement re-asserts move(b,c): the retraction is
	// cancelled, so win(b) is true again, and the unrelated new edge
	// makes win(e) true.
	if strings.Count(out, "true") < 2 {
		t.Errorf("compound re-assertion suppressed by retraction replay:\n%s", out)
	}
}
