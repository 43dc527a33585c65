// wfsquery answers NBCQs over a guarded normal Datalog± program under the
// well-founded semantics with UNA.
//
// Usage:
//
//	wfsquery [-depth N] [-query Q] [-retract F] [-trace] [-timeout D]
//	         [-traceparent HDR] file.dlg
//
// The program file may embed queries ('? lit, ….'); additional queries can
// be passed with -query (repeatable). -retract (repeatable) removes
// database facts after loading and before answering — all retractions
// apply as one atomic delta. With -model, the tool also prints the true
// and undefined atoms of the model. With -trace, each -query prints a
// per-phase evaluation trace (chase/ground/condense/solve timings).
// -timeout bounds each query evaluation with a deadline: the adaptive
// ladder is cooperatively cancelled when it expires and the run fails
// with "deadline exceeded" instead of chasing a non-terminating program
// forever (0 = no deadline).
//
// Every run carries a trace identity: a W3C traceparent, continued from
// -traceparent when a well-formed header value is given (so a run
// launched by a traced service shares its trace ID) or minted fresh.
// -v and -trace print it as trace_id=..., the same identifier wfsd
// stamps on access-log lines and flight-recorder entries.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	wfs "repro"
	"repro/internal/core"
	"repro/internal/trace"
)

type queryFlags []string

func (q *queryFlags) String() string     { return strings.Join(*q, "; ") }
func (q *queryFlags) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	var (
		depth     = flag.Int("depth", 0, "chase depth (0 = default)")
		showModel = flag.Bool("model", false, "print true and undefined atoms")
		verbose   = flag.Bool("v", false, "print adaptive-deepening traces")
		traceEval = flag.Bool("trace", false, "print a per-phase evaluation trace for each -query")
		explain   = flag.String("explain", "", "print a forward proof (Def. 5) of a ground atom, e.g. -explain 't(0)'")
		parentHdr = flag.String("traceparent", "", "continue this W3C traceparent (malformed values mint a fresh trace ID)")
		timeout   = flag.Duration("timeout", 0, "deadline per query evaluation; expiry cancels the ladder cooperatively (0 = none)")
		queries   queryFlags
		retracts  queryFlags
	)
	flag.Var(&queries, "query", "additional NBCQ (repeatable)")
	flag.Var(&retracts, "retract", "database fact to retract after loading, e.g. -retract 'p(a)' (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wfsquery [flags] program.dlg")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// One trace identity per run, continued from -traceparent when the
	// caller passed a well-formed header value (malformed is never an
	// error — the run proceeds under a fresh identity, mirroring wfsd).
	tctx, ok := trace.ParseTraceparent(*parentHdr)
	if ok {
		tctx = tctx.WithNewSpan()
	} else {
		tctx = trace.MintContext()
	}
	if *verbose || *traceEval {
		fmt.Printf("trace_id=%s\n", tctx.TraceIDString())
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	sys, err := wfs.LoadWithOptions(string(src), wfs.Options{Depth: *depth})
	if err != nil {
		fatal(err)
	}

	if len(retracts) > 0 {
		d := wfs.NewDelta()
		for _, fs := range retracts {
			pred, args, err := wfs.ParseFact(fs)
			if err != nil {
				fatal(err)
			}
			d.Retract(pred, args...)
		}
		if err := sys.Apply(d); err != nil {
			fatal(err)
		}
	}

	for _, r := range sys.AnswerAll() {
		if r.Err != nil {
			fatal(r.Err)
		}
		fmt.Printf("%-50s %s\n", r.Query, r.Answer)
	}
	for _, qs := range queries {
		ans, stats, et, err := answerOne(sys, qs, *timeout, *traceEval)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-50s %s\n", qs, ans)
		if et != nil {
			fmt.Print(et.Format())
		}
		if *verbose {
			fmt.Printf("  depths=%v answers=%v exact=%v stable=%v\n",
				stats.Depths, stats.Answers, stats.Exact, stats.Stable)
		}
	}

	if *explain != "" {
		tv, err := sys.TruthOf(*explain)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s is %s in WFS(D,Σ)\n", *explain, tv)
		if out, ok, err := sys.ExplainAtom(*explain); err != nil {
			fatal(err)
		} else if ok {
			fmt.Println("forward proof (Definition 5):")
			fmt.Print(out)
		} else {
			fmt.Println("no forward proof with WFS-false negative hypotheses exists")
		}
	}

	if vs := sys.CheckConstraints(); len(vs) > 0 {
		fmt.Println("constraint violations:")
		for _, v := range vs {
			fmt.Printf("  %s\n", v)
		}
	}

	if *showModel {
		fmt.Println("true atoms:")
		for _, a := range sys.TrueFacts() {
			fmt.Printf("  %s\n", a)
		}
		if und := sys.UndefinedFacts(); len(und) > 0 {
			fmt.Println("undefined atoms:")
			for _, a := range und {
				fmt.Printf("  %s\n", a)
			}
		}
	}
}

// answerOne evaluates one -query, optionally under a deadline and
// optionally traced. With no deadline it uses the System convenience
// paths; with one it prepares the query against a snapshot and runs the
// context-aware ladder, so expiry cancels the evaluation cooperatively
// mid-chase instead of after the fact.
func answerOne(sys *wfs.System, qs string, timeout time.Duration, traced bool) (wfs.Truth, *core.AnswerStats, *trace.EvalTrace, error) {
	if timeout <= 0 {
		if traced {
			return sys.TraceAnswer(qs)
		}
		ans, stats, err := sys.AnswerWithStats(qs)
		return ans, stats, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	q, err := wfs.Prepare(qs)
	if err != nil {
		return wfs.False, nil, nil, err
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return wfs.False, nil, nil, err
	}
	var root *trace.Span
	if traced {
		root = trace.NewDetailed("query")
	}
	ans, stats, err := snap.AnswerCtxTraced(ctx, q, root)
	root.End()
	var et *trace.EvalTrace
	if traced && err == nil {
		et = root.Trace()
	}
	return ans, stats, et, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfsquery:", err)
	os.Exit(1)
}
