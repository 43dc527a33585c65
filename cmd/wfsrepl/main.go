// wfsrepl is an interactive shell for guarded normal Datalog± under the
// well-founded semantics.
//
// Usage:
//
//	wfsrepl [program.dlg ...]        # load files, then read stdin
//
// Each input line is a statement:
//
//	p(a).                            add a fact or rule
//	p(X), not q(X) -> r(X).          add a rule
//	? r(a).                          answer an NBCQ (adaptive deepening)
//	?? r(X).                         select answer tuples over constants
//	:retract p(a)                    retract a database fact
//	:explain t(0)                    print a forward proof (Definition 5)
//	:wcheck win(a)                   goal-directed membership check
//	:model                           print true and undefined atoms
//	:check                           evaluate constraints and EGDs
//	:stats                           chase/model statistics
//	:lint                            static analysis report (termination, diagnostics)
//	:trace on|off                    per-phase evaluation traces for '?' queries
//	:timeout 500ms|off               deadline per '?' query (cooperative cancel)
//	:help                            this text
//	:quit                            exit
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	wfs "repro"
	"repro/internal/parser"
	"repro/internal/trace"
)

const help = `statements:
  fact or rule terminated by '.'    add to the program/database
  ? lit, lit, ... .                 answer an NBCQ
  ?? lit, lit, ... .                select answer tuples over constants
commands:
  :retract FACT   retract a database fact, e.g. :retract p(a)
  :explain ATOM   forward proof of a true ground atom
  :wcheck ATOM    goal-directed membership check
  :model          print true and undefined atoms
  :check          evaluate constraints and EGDs
  :stats          chase/model statistics
  :lint           static analysis: termination classes, certificate, diagnostics
  :trace on|off   per-phase evaluation traces for '?' queries
  :timeout D|off  deadline per '?' query, e.g. :timeout 500ms; expiry cancels
                  the evaluation cooperatively (:timeout alone shows the state)
  :help           this text
  :quit           exit`

func main() {
	var src strings.Builder
	for _, f := range os.Args[1:] {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfsrepl:", err)
			os.Exit(1)
		}
		src.Write(data)
		src.WriteByte('\n')
	}
	sys, err := wfs.Load(src.String())
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfsrepl:", err)
		os.Exit(1)
	}
	for _, r := range sys.AnswerAll() {
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, "wfsrepl:", r.Err)
			continue
		}
		fmt.Printf("%-40s %s\n", r.Query, r.Answer)
	}
	repl(sys, src.String(), os.Stdin, os.Stdout)
}

func repl(sys *wfs.System, base string, in io.Reader, out io.Writer) {
	accumulated := base
	// Retractions applied so far: a statement rebuilds the system from the
	// accumulated source, which would resurrect retracted facts, so they
	// are replayed after every rebuild.
	type retraction struct {
		pred string
		args []string
	}
	var retracted []retraction
	tracing := false
	var timeout time.Duration // 0 = no deadline on '?' queries
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(out, "wfs> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#"):
		case line == ":quit" || line == ":q":
			return
		case line == ":help":
			fmt.Fprintln(out, help)
		case line == ":model":
			fmt.Fprintln(out, "true atoms:")
			for _, a := range sys.TrueFacts() {
				fmt.Fprintln(out, " ", a)
			}
			if und := sys.UndefinedFacts(); len(und) > 0 {
				fmt.Fprintln(out, "undefined atoms:")
				for _, a := range und {
					fmt.Fprintln(out, " ", a)
				}
			}
		case line == ":check":
			vs := sys.CheckConstraints()
			if len(vs) == 0 {
				fmt.Fprintln(out, "no violations")
			}
			for _, v := range vs {
				fmt.Fprintln(out, " ", v)
			}
		case line == ":lint":
			fmt.Fprint(out, sys.Analysis().Format(true))
		case line == ":stats":
			st := sys.Stats()
			fmt.Fprintf(out, "chase: atoms=%d instances=%d maxDepth=%d truncated=%v\n",
				st.Model.ChaseAtoms, st.Model.ChaseInstances, st.Model.MaxDepthReached, st.Model.Truncated)
			fmt.Fprintf(out, "model: depth %d, %d true, %d undefined, exact=%v\n",
				st.Model.Depth, st.Model.TrueAtoms, st.Model.UndefinedAtoms, st.Model.Exact)
			fmt.Fprintf(out, "δ (Prop. 12) ≈ 2^%d\n", st.DeltaBits)
		case strings.HasPrefix(line, ":retract "):
			factSrc := strings.TrimSpace(strings.TrimPrefix(line, ":retract"))
			pred, args, err := wfs.ParseFact(factSrc)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			if err := sys.RetractFact(pred, args...); err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			retracted = append(retracted, retraction{pred: pred, args: args})
			fmt.Fprintln(out, "ok")
		case strings.HasPrefix(line, ":explain "):
			atomSrc := strings.TrimSpace(strings.TrimPrefix(line, ":explain"))
			tv, err := sys.TruthOf(atomSrc)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "%s is %s\n", atomSrc, tv)
			if proof, ok, err := sys.ExplainAtom(atomSrc); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else if ok {
				fmt.Fprint(out, proof)
			}
		case strings.HasPrefix(line, ":wcheck "):
			atomSrc := strings.TrimSpace(strings.TrimPrefix(line, ":wcheck"))
			tv, stats, err := sys.WCheck(atomSrc)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "%s is %s (closure %d/%d atoms)\n",
				atomSrc, tv, stats.ClosureAtoms, stats.TotalAtoms)
		case strings.HasPrefix(line, "??"):
			vars, rows, err := sys.Select(strings.TrimPrefix(line, "??"))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintln(out, strings.Join(vars, "\t"))
			for _, row := range rows {
				fmt.Fprintln(out, strings.Join(row, "\t"))
			}
			fmt.Fprintf(out, "(%d tuples)\n", len(rows))
		case line == ":trace on":
			tracing = true
			fmt.Fprintln(out, "tracing on")
		case line == ":trace off":
			tracing = false
			fmt.Fprintln(out, "tracing off")
		case line == ":trace":
			state := "off"
			if tracing {
				state = "on"
			}
			fmt.Fprintf(out, "tracing %s (use :trace on|off)\n", state)
		case line == ":timeout":
			if timeout > 0 {
				fmt.Fprintf(out, "timeout %s (use :timeout DURATION or :timeout off)\n", timeout)
			} else {
				fmt.Fprintln(out, "timeout off (use :timeout DURATION, e.g. :timeout 500ms)")
			}
		case strings.HasPrefix(line, ":timeout "):
			arg := strings.TrimSpace(strings.TrimPrefix(line, ":timeout"))
			if arg == "off" || arg == "0" {
				timeout = 0
				fmt.Fprintln(out, "timeout off")
				break
			}
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				fmt.Fprintln(out, "error: :timeout wants a duration like 500ms or 2s, or off")
				break
			}
			timeout = d
			fmt.Fprintf(out, "timeout %s\n", d)
		case strings.HasPrefix(line, "?"):
			if tracing {
				ans, _, et, err := sys.TraceAnswer(line)
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					break
				}
				fmt.Fprintln(out, ans)
				// Each traced query gets its own trace ID, in the same hex
				// form wfsd stamps on logs and flight-recorder entries, so
				// a REPL trace can be cited alongside server-side ones.
				fmt.Fprintf(out, "trace_id=%s\n", trace.MintContext().TraceIDString())
				fmt.Fprint(out, et.Format())
				break
			}
			ans, err := answerWithTimeout(sys, line, timeout)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintln(out, ans)
		case strings.HasPrefix(line, ":"):
			fmt.Fprintln(out, "unknown command; :help for help")
		default:
			// A statement: rebuild the system with the new clause. This
			// keeps the REPL simple and the engine caches consistent.
			next := accumulated + "\n" + line
			ns, err := wfs.Load(next)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			// A statement that re-asserts a previously retracted fact
			// cancels the pending retraction — the user's latest word
			// wins — instead of being silently deleted by the replay.
			// The line is parsed as a unit so compound lines ("p(a).
			// q(b).") cancel every fact they assert.
			if u, perr := parser.Parse(line); perr == nil {
				for _, f := range u.Facts {
					retracted = slices.DeleteFunc(retracted, func(r retraction) bool {
						return r.pred == f.Pred && slices.Equal(r.args, f.Args)
					})
				}
			}
			// Replay the surviving retractions: the rebuild resurrected
			// their facts from the accumulated source.
			for _, r := range retracted {
				if err := ns.RetractFact(r.pred, r.args...); err != nil {
					fmt.Fprintln(out, "warning: replaying retraction:", err)
				}
			}
			accumulated = next
			sys = ns
			fmt.Fprintln(out, "ok")
		}
		fmt.Fprint(out, "wfs> ")
	}
}

// answerWithTimeout answers one '?' query, cooperatively cancelled when
// the :timeout deadline (if any) expires mid-evaluation.
func answerWithTimeout(sys *wfs.System, query string, timeout time.Duration) (wfs.Truth, error) {
	if timeout <= 0 {
		return sys.Answer(query)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return sys.AnswerCtx(ctx, query)
}
