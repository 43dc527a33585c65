package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	wfs "repro"
	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/program"
	httpd "repro/internal/server"
	"repro/internal/term"
	ptrace "repro/internal/trace"
	"repro/internal/wal"
)

// The layer run pushes a shortened prefix of a workload's own inputs —
// the program text, the reader's queries, the writer's mutations —
// through the layers one public call at a time, each call inside a span
// recorded here, in the benchmark. It runs in this process, after the
// live run, so its numbers never mix with end-to-end ones.

const (
	layerPasses = 3   // cold pipeline repetitions (fresh store each)
	layerReads  = 600 // reader queries replayed
	layerPairs  = 6   // writer rounds replayed (two mutations each)
)

// layerInputs is the prefix of a workload's operation sequences the
// layer run replays.
type layerInputs struct {
	sequence  []op // the reader's reads in issue order, whatever the endpoint
	reads     []op // those of them that POST …/query
	selects   []op // POST …/select
	mutations []op // facts/retract, mutations[i] followed by fresh[i]
	fresh     []op
}

func drawInputs(w *workload) layerInputs {
	var in layerInputs
	take := func(o op) {
		if o.class == clRead && len(in.sequence) < layerReads {
			in.sequence = append(in.sequence, o)
		}
		o.want.hasEp = false // the replays never re-create the session, so epochs differ
		switch {
		case o.class == clRead && strings.HasSuffix(o.path, "/query") && len(in.reads) < layerReads:
			in.reads = append(in.reads, o)
		case o.class == clRead && strings.HasSuffix(o.path, "/select") && len(in.selects) < layerReads:
			in.selects = append(in.selects, o)
		case o.class == clMutate && len(in.mutations) < 2*layerPairs:
			in.mutations = append(in.mutations, o)
		case o.class == clFresh && len(in.fresh) < 2*layerPairs:
			in.fresh = append(in.fresh, o)
		}
	}
	for _, next := range w.clients {
		// cold_start issues two mutations per ~40 operations.
		for i := 0; i < 40*layerPairs+layerReads; i++ {
			take(next())
		}
	}
	// A workload whose measured phase does not write still has its writer
	// rounds: the ones every set-up ends with.
	for len(in.mutations) < 2*layerPairs {
		for _, o := range w.round(0) {
			take(o)
		}
	}
	if len(in.selects) == 0 {
		in.selects = in.reads // Select on a Boolean query is legal: zero or one empty tuple
	}
	return in
}

// layerRun holds what the stages share.
type layerRun struct {
	w      *workload
	in     layerInputs
	tr     *tracer
	counts map[string]float64 // counts and ratios taken at the span boundaries
	nWrong int                // in-process answers that disagree with the oracle
	wrong  []string           // the first few of them
	tmp    string
}

// fail records an in-process answer that disagrees with the oracle.
func (l *layerRun) fail(format string, args ...any) {
	l.nWrong++
	if len(l.wrong) < maxFailuresKept {
		l.wrong = append(l.wrong, fmt.Sprintf(format, args...))
	}
}

func (l *layerRun) check(stage string, o op, got ground.Truth, exact bool) {
	if got.String() != string(o.want.answer) || exact != o.want.exact {
		l.fail("%s: %s -> %s exact=%v, want %s exact=%v", stage, o.text, got, exact, o.want.answer, o.want.exact)
	}
}

// compiled is one cold pass of the pipeline, kept for the later stages.
type compiled struct {
	st   *atom.Store
	prog *program.Program
	db   program.Database
	opts core.Options // as wfs.LoadWithOptions resolves them
	res  *chase.Result
	gp   *ground.Program
	gm   *ground.Model
}

func solver(opts core.Options) func(*ground.Program) *ground.Model {
	par := opts.WithDefaults().Parallelism
	return func(p *ground.Program) *ground.Model {
		return ground.SolveModular(p, ground.AlternatingFixpoint, par)
	}
}

// pipeline is the cold path of one session create plus first answer,
// layer by layer: parse, compile, analyze, chase to the first rung,
// ground, condense, solve.
func (l *layerRun) pipeline() (*compiled, error) {
	var c *compiled
	for pass := 0; pass < layerPasses; pass++ {
		c = &compiled{}
		var err error
		var unit *parser.Unit
		var queries []*program.Query
		var rep *analysis.Report
		root := l.tr.begin("pipeline", -1, pass)
		l.tr.time("parser.parse", root, pass, func() { unit, err = parser.Parse(l.w.program) })
		if err != nil {
			return nil, err
		}
		c.st = atom.NewStore(term.NewStore())
		l.tr.time("program.compile", root, pass, func() { c.prog, c.db, queries, err = program.Compile(unit, c.st) })
		if err != nil {
			return nil, err
		}
		l.tr.time("analysis.analyze", root, pass, func() { rep = analysis.Analyze(c.prog, c.db, queries) })
		if rep.Certificate != nil {
			c.opts.CertifiedDepth = rep.Certificate.DepthBound
		}
		ro := c.opts.WithDefaults()
		l.tr.time("chase.run", root, pass, func() {
			c.res = chase.Run(c.prog, c.db, chase.Options{MaxDepth: ro.AdaptiveStart, MaxAtoms: ro.MaxAtoms})
		})
		l.tr.time("ground.build", root, pass, func() { c.gp = ground.FromChase(c.res) })
		var cond *ground.Condensation
		l.tr.time("ground.condense", root, pass, func() { cond = c.gp.Condensation() })
		l.tr.time("ground.solve", root, pass, func() { c.gm = solver(c.opts)(c.gp) })
		l.tr.end(root)
		l.counts["chase.atoms"] = float64(len(c.res.Atoms))
		l.counts["chase.instances"] = float64(len(c.res.Instances))
		l.counts["ground.rules"] = float64(len(c.gp.Rules))
		l.counts["ground.sccs"] = float64(cond.NumComps())
		l.counts["ground.largest_scc"] = float64(cond.LargestComp)
		l.counts["ground.hard_sccs"] = float64(cond.NumHard)
		l.counts["ground.solve_rounds"] = float64(c.gm.Rounds)
	}
	return c, nil
}

func compileQuery(st *atom.Store, text string) (*program.Query, error) {
	ast, err := parser.ParseQueryString(text)
	if err != nil {
		return nil, err
	}
	return program.CompileQuery(ast, st)
}

// coreStage answers the reader's queries on warm models: the ladder walk
// (core.ladder), one rung's match (core.match) and Select, and before
// that the per-rung chase extension the first answer pays for.
func (l *layerRun) coreStage(c *compiled) (*core.Engine, []int, error) {
	eng := core.NewEngine(c.prog, c.db, c.opts)
	cq0, err := compileQuery(c.st, l.w.first.text)
	if err != nil {
		return nil, nil, err
	}
	var stats *core.AnswerStats
	l.tr.time("core.first_answer", -1, 0, func() { _, stats, err = eng.Answer(cq0) })
	if err != nil {
		return nil, nil, err
	}
	rungs := stats.Depths
	// The same climb, chase and grounding only, from the staged pipeline's
	// first rung: what Extend and ExtendFromChase cost per further rung.
	res, gp := c.res, c.gp
	for i, d := range rungs[1:] {
		l.tr.time("chase.extend", -1, i, func() { res = res.Extend(c.prog, d) })
		l.tr.time("ground.extend", -1, i, func() { gp = ground.ExtendFromChase(gp, res) })
	}
	first := eng.EvaluateAtDepth(rungs[0])
	walked := 0
	for i, o := range l.in.reads {
		cq, err := compileQuery(c.st, o.text)
		if err != nil {
			return nil, nil, err
		}
		var ans ground.Truth
		l.tr.time("core.ladder", -1, i, func() { ans, stats, err = eng.Answer(cq) })
		if err != nil {
			return nil, nil, err
		}
		l.check("core.ladder", o, ans, stats.Exact)
		walked += len(stats.Depths)
		l.tr.time("core.match", -1, i, func() { first.Answer(cq) })
	}
	for i, o := range l.in.selects {
		cq, err := compileQuery(c.st, o.text)
		if err != nil {
			return nil, nil, err
		}
		l.tr.time("core.select", -1, i, func() { first.Select(cq) })
	}
	l.counts["core.ladder_rungs"] = float64(walked) / float64(len(l.in.reads))
	return eng, rungs, nil
}

func internFacts(st *atom.Store, facts []fact) ([]atom.AtomID, error) {
	out := make([]atom.AtomID, len(facts))
	for i, f := range facts {
		p, err := st.Pred(f.Pred, len(f.Args))
		if err != nil {
			return nil, err
		}
		args := make([]term.ID, len(f.Args))
		for j, a := range f.Args {
			args[j] = st.Terms.Const(a)
		}
		out[i] = st.Atom(p, args)
	}
	return out, nil
}

// mutationStage carries the first rung's chase, grounding and model —
// and every rung's core.Model — across the writer's mutations. Inside
// one "mutation" span: the chase delta and the regrounding on their own,
// then delta.Rebase (which does both again and yields the warm-start
// seeds), the incremental solve over the affected cone, and
// core.RebaseModel once per rung.
func (l *layerRun) mutationStage(c *compiled, eng *core.Engine, rungs []int) error {
	models := make([]*core.Model, len(rungs))
	for i, d := range rungs {
		models[i] = eng.EvaluateAtDepth(d)
	}
	res, gp, gm, db := c.res, c.gp, c.gm, c.db
	var cone, universe float64
	for i, o := range l.in.mutations {
		atoms, err := internFacts(c.st, o.facts)
		if err != nil {
			return err
		}
		var newDB program.Database
		var added, removed []atom.AtomID
		var next *chase.Result
		root := l.tr.begin("mutation", -1, i)
		if o.retract {
			removed = atoms
			newDB = slices.DeleteFunc(slices.Clone(db), func(a atom.AtomID) bool { return slices.Contains(atoms, a) })
			l.tr.time("chase.delta", root, i, func() { next, _ = res.Retract(c.prog, newDB) })
			l.tr.time("ground.reground", root, i, func() { ground.FromChase(next) })
		} else {
			added = atoms
			newDB = append(db[:len(db):len(db)], atoms...)
			l.tr.time("chase.delta", root, i, func() { next = res.ExtendDB(c.prog, newDB, added) })
			l.tr.time("ground.reground", root, i, func() { ground.ExtendFromChase(gp, next) })
		}
		var reb delta.Result
		var ok bool
		l.tr.time("delta.rebase", root, i, func() { reb, ok = delta.Rebase(res, gp, c.prog, newDB, added, removed) })
		if !ok {
			return fmt.Errorf("delta.Rebase refused mutation %d of %s", i, l.w.name)
		}
		// The program's own span type is used here only to read the cone
		// counters IncrementalModel already publishes.
		sp := ptrace.New("incremental")
		l.tr.time("ground.incremental", root, i, func() {
			gm = ground.IncrementalModelTraced(reb.GP, gm, reb.Seeds, solver(c.opts), sp)
		})
		if u := sp.Counter("universe_atoms"); u > 0 {
			cone += float64(sp.Counter("affected_atoms"))
			universe += float64(u)
		} else { // no warm start possible: everything was re-solved
			cone += float64(len(reb.GP.Atoms))
			universe += float64(len(reb.GP.Atoms))
		}
		for ri, d := range rungs {
			l.tr.time("core.rebase", root, i, func() { models[ri] = core.RebaseModel(models[ri], c.prog, c.opts, d, newDB) })
		}
		l.tr.end(root)
		res, gp, db = reb.Chase, reb.GP, newDB
		cq, err := compileQuery(c.st, l.in.fresh[i].text)
		if err != nil {
			return err
		}
		last := models[len(models)-1]
		l.check("core.rebase", l.in.fresh[i], last.Answer(cq), last.Exact)
	}
	l.counts["ground.cone_ratio"] = cone / universe
	return nil
}

// wfsStage drives the root package the way the server does: load, first
// answer, first-seen and repeated answers on a warm snapshot, then
// apply / snapshot / warm rebase per mutation.
func (l *layerRun) wfsStage() error {
	ctx := context.Background()
	var sys *wfs.System
	var err error
	l.tr.time("wfs.load", -1, 0, func() { sys, err = wfs.LoadWithOptions(l.w.program, wfs.Options{}) })
	if err != nil {
		return err
	}
	q0, err := wfs.Prepare(l.w.first.text)
	if err != nil {
		return err
	}
	var snap *wfs.Snapshot
	var ans wfs.Truth
	var stats *core.AnswerStats
	l.tr.time("wfs.first_answer", -1, 0, func() {
		if snap, err = sys.Snapshot(); err == nil {
			ans, stats, err = snap.AnswerCtxStats(ctx, q0)
		}
	})
	if err != nil {
		return err
	}
	l.check("wfs.first_answer", l.w.first, ans, stats.Exact)
	prepared := make([]*wfs.Query, len(l.in.reads))
	for i, o := range l.in.reads {
		l.tr.time("parser.query_parse", -1, i, func() {
			if prepared[i], err = wfs.Prepare(o.text); err == nil {
				_, err = wfs.NormalizeQuery(o.text)
			}
		})
		if err != nil {
			return err
		}
		l.tr.time("wfs.answer_miss", -1, i, func() { ans, stats, err = snap.AnswerCtxStats(ctx, prepared[i]) })
		if err != nil {
			return err
		}
		l.check("wfs.answer_miss", o, ans, stats.Exact)
		l.tr.time("wfs.answer_repeat", -1, i, func() { _, _, err = snap.AnswerCtxStats(ctx, prepared[i]) })
		if err != nil {
			return err
		}
	}
	l.overhead(snap, prepared)
	for i, o := range l.in.mutations {
		d := wfs.NewDelta()
		for _, f := range o.facts {
			if o.retract {
				d.Retract(f.Pred, f.Args...)
			} else {
				d.Add(f.Pred, f.Args...)
			}
		}
		root := l.tr.begin("wfs.mutation", -1, i)
		l.tr.time("wfs.apply", root, i, func() { err = sys.Apply(d) })
		if err != nil {
			return err
		}
		l.tr.time("wfs.snapshot_publish", root, i, func() { snap, err = sys.Snapshot() })
		if err != nil {
			return err
		}
		l.tr.time("wfs.warm_rebase", root, i, func() { snap.WarmRebased(nil) })
		l.tr.end(root)
		q, err := wfs.Prepare(l.in.fresh[i].text)
		if err != nil {
			return err
		}
		if ans, stats, err = snap.AnswerCtxStats(ctx, q); err != nil {
			return err
		}
		l.check("wfs.apply", l.in.fresh[i], ans, stats.Exact)
	}
	em := sys.Metrics().Read()
	l.counts["wfs.rebase_ratio"] = float64(em.Rebases) / float64(max(em.Builds, 1))
	return nil
}

// overhead replays warm answers with the benchmark's spans on and off,
// alternating, and keeps the fastest round of each.
func (l *layerRun) overhead(snap *wfs.Snapshot, prepared []*wfs.Query) {
	ctx := context.Background()
	replay := func(tr *tracer) float64 {
		start := time.Now()
		for i, q := range prepared {
			tr.time("trace.replay", -1, i, func() { snap.AnswerCtxStats(ctx, q) })
		}
		return time.Since(start).Seconds()
	}
	var best [2]float64 // fastest round with spans off, on
	for round := 0; round < 6; round++ {
		traced := round % 2
		t := replay(&tracer{on: traced == 1, t0: time.Now()})
		if best[traced] == 0 || t < best[traced] {
			best[traced] = t
		}
	}
	l.counts["trace.overhead_ratio"] = best[1] / best[0]
}

// serverStage calls the HTTP handler directly: the same requests the
// live run sends, without a socket in between.
func (l *layerRun) serverStage() error {
	srv := httpd.New(httpd.Config{})
	defer srv.Close()
	h := srv.Handler()
	call := func(span string, i int, o op) reply {
		req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
		rec := httptest.NewRecorder()
		id := l.tr.begin(span, -1, i)
		h.ServeHTTP(rec, req)
		l.tr.end(id)
		var rep reply
		if rec.Body.Len() > 0 {
			_ = json.Unmarshal(rec.Body.Bytes(), &rep) // a reply that is not JSON fails the check below
		}
		if rec.Code != o.want.status {
			l.fail("handler %s %s -> %d %.200s", o.method, o.path, rec.Code, rec.Body.Bytes())
		} else if why := o.want.mismatch(&rep); why != "" {
			l.fail("handler %s %s %.100s: %s", o.method, o.path, o.body, why)
		}
		return rep
	}
	l.tr.time("server.create_decode", -1, 0, func() {
		var req httpd.CreateSessionRequest
		dec := json.NewDecoder(bytes.NewReader(l.w.create.body))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req) // the handler decodes the same bytes next and reports any error
	})
	call("server.create", 0, l.w.create)
	call("server.first_answer", 0, l.w.first)
	// Reads in the reader's own order, so hits and misses fall where the
	// cache puts them — the reply says which one a request was — and then
	// the last 64 once more, which the cache still holds.
	reads := l.in.sequence
	for i, o := range append(slices.Clone(reads), reads[max(0, len(reads)-64):]...) {
		id := len(l.tr.spans)
		if call("server.handler_miss", i, o).Cached {
			l.tr.spans[id].Name = "server.handler_hit"
		}
	}
	stats := func() httpd.ServerStatsResponse {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		var st httpd.ServerStatsResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &st) // zero stats show up as zero metrics
		return st
	}
	st := stats()
	lookups := float64(st.Cache.Hits + st.Cache.Misses)
	l.counts["server.cache_hit_ratio"] = float64(st.Cache.Hits) / max(lookups, 1)
	// Every miss is stored; what is no longer there was evicted.
	l.counts["server.cache_evictions"] = float64(int(st.Cache.Misses) - st.Cache.Entries)
	pruned := 0
	for i, o := range l.in.mutations {
		before := stats().Cache.Entries
		call("server.mutate", i, o)
		pruned += before - stats().Cache.Entries
		call("server.fresh_read", i, l.in.fresh[i])
	}
	st = stats()
	l.counts["server.cache_pruned"] = float64(pruned)
	l.counts["server.singleflight_shared"] = float64(st.SingleflightShared)
	l.counts["server.limiter_rejected"] = float64(st.RejectedTimeout + st.RejectedCanceled)
	return nil
}

// walStage logs the writer's mutations to a real directory, without and
// with fsync, checkpoints, and recovers from the fsynced log as after a
// crash (no final checkpoint, the log left open).
func (l *layerRun) walStage() error {
	sys, err := wfs.LoadWithOptions(l.w.program, wfs.Options{})
	if err != nil {
		return err
	}
	facts, epoch := sys.DumpState()
	dump := func() wal.Checkpoint {
		return wal.Checkpoint{Name: session, Source: l.w.program, Epoch: epoch, Facts: facts}
	}
	refs := func(fs []fact) []wfs.FactRef {
		out := make([]wfs.FactRef, len(fs))
		for i, f := range fs {
			out[i] = wfs.FactRef{Pred: f.Pred, Args: f.Args}
		}
		return out
	}
	appendAll := func(span string, log *wal.SessionLog) error {
		for i, o := range l.in.mutations {
			adds, retracts := refs(o.facts), []wfs.FactRef(nil)
			if o.retract {
				adds, retracts = nil, adds
			}
			var err error
			l.tr.time(span, -1, i, func() { err = log.Append(epoch+uint64(i)+1, adds, retracts) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	open := func(fsync bool) (*wal.Manager, *wal.SessionLog, error) {
		mgr, err := wal.Open(filepath.Join(l.tmp, fmt.Sprintf("wal-fsync-%v", fsync)), wal.Options{Fsync: fsync})
		if err != nil {
			return nil, nil, err
		}
		var log *wal.SessionLog
		l.tr.time("wal.checkpoint", -1, 0, func() { log, err = mgr.Create(session, dump()) })
		return mgr, log, err
	}

	plain, log, err := open(false)
	if err != nil {
		return err
	}
	defer log.Close()
	if err := appendAll("wal.append", log); err != nil {
		return err
	}
	m := plain.Metrics().Read()
	l.counts["wal.bytes_per_record"] = float64(m.AppendedBytes) / float64(max(m.AppendedRecords, 1))
	// Timed for its size only: the same 10^5 facts a threshold-triggered
	// checkpoint would write.
	l.tr.time("wal.checkpoint", -1, 1, func() { err = log.Checkpoint(dump) })
	if err != nil {
		return err
	}

	synced, slog, err := open(true)
	if err != nil {
		return err
	}
	defer slog.Close()
	if err := appendAll("wal.append_fsync", slog); err != nil {
		return err
	}
	// Recover in a second manager over the same directory: the state a
	// restarted wfsd finds after a SIGKILL.
	again, err := wal.Open(filepath.Join(l.tmp, "wal-fsync-true"), wal.Options{Fsync: true})
	if err != nil {
		return err
	}
	var recs []wal.Recovered
	var skipped []wal.Skipped
	l.tr.time("wal.recover", -1, 0, func() { recs, skipped, err = again.Recover() })
	if err != nil {
		return err
	}
	if len(recs) != 1 || len(skipped) != 0 {
		return fmt.Errorf("wal.Recover: %d sessions recovered, %d skipped, want 1 and 0", len(recs), len(skipped))
	}
	defer recs[0].Log.Close()
	if got, want := recs[0].Sys.Epoch(), epoch+uint64(len(l.in.mutations)); got != want {
		return fmt.Errorf("wal.Recover: epoch %d, want %d", got, want)
	}
	l.counts["wal.replayed_records"] = float64(recs[0].Replayed)
	m = synced.Metrics().Read()
	l.counts["wal.fsyncs"] = float64(m.Fsyncs)
	l.counts["wal.fsync_us"] = float64(m.FsyncNS) / 1e3 / float64(max(m.Fsyncs, 1))
	l.counts["wal.checkpoints"] = float64(m.Checkpoints)
	return nil
}

// runLayers runs every stage for one workload and writes the spans to
// <out>/layers-<workload>.json.
func runLayers(cfg config, w *workload, in layerInputs) (*layerRun, error) {
	tmp, err := os.MkdirTemp(filepath.Join(cfg.root, buildDir), "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	l := &layerRun{w: w, in: in, tr: newTracer(), counts: make(map[string]float64), tmp: tmp}
	c, err := l.pipeline()
	if err != nil {
		return nil, err
	}
	eng, rungs, err := l.coreStage(c)
	if err != nil {
		return nil, err
	}
	if err := l.mutationStage(c, eng, rungs); err != nil {
		return nil, err
	}
	c, eng = nil, nil
	for _, stage := range []func() error{l.wfsStage, l.serverStage, l.walStage} {
		runtime.GC() // the previous stage's knowledge base is garbage now
		if err := stage(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// layerMetrics reduces the spans to the per-layer metrics: the median
// duration per span name, and the counts taken beside them.
func (l *layerRun) layerMetrics() map[string]metric {
	d := l.tr.durations()
	msOf := func(span string) metric { return metric{ms(median(d[span])), "ms"} }
	usOf := func(span string) metric { return metric{ms(median(d[span])) * 1e3, "us"} }
	count := func(name string) metric { return metric{l.counts[name], "count"} }
	ratio := func(name string) metric { return metric{l.counts[name], "ratio"} }
	return map[string]metric{
		"parser.parse_ms":            msOf("parser.parse"),
		"parser.query_parse_us":      usOf("parser.query_parse"),
		"program.compile_ms":         msOf("program.compile"),
		"analysis.analyze_ms":        msOf("analysis.analyze"),
		"chase.run_ms":               msOf("chase.run"),
		"chase.extend_ms":            msOf("chase.extend"),
		"chase.delta_ms":             msOf("chase.delta"),
		"chase.atoms":                count("chase.atoms"),
		"chase.instances":            count("chase.instances"),
		"ground.build_ms":            msOf("ground.build"),
		"ground.condense_ms":         msOf("ground.condense"),
		"ground.solve_ms":            msOf("ground.solve"),
		"ground.reground_ms":         msOf("ground.reground"),
		"ground.incremental_ms":      msOf("ground.incremental"),
		"ground.rules":               count("ground.rules"),
		"ground.sccs":                count("ground.sccs"),
		"ground.largest_scc":         count("ground.largest_scc"),
		"ground.hard_sccs":           count("ground.hard_sccs"),
		"ground.solve_rounds":        count("ground.solve_rounds"),
		"ground.cone_ratio":          ratio("ground.cone_ratio"),
		"core.match_us":              usOf("core.match"),
		"core.select_us":             usOf("core.select"),
		"core.ladder_us":             usOf("core.ladder"),
		"core.ladder_rungs":          count("core.ladder_rungs"),
		"core.rebase_ms":             msOf("core.rebase"),
		"delta.rebase_ms":            msOf("delta.rebase"),
		"wfs.load_ms":                msOf("wfs.load"),
		"wfs.first_answer_ms":        msOf("wfs.first_answer"),
		"wfs.answer_miss_us":         usOf("wfs.answer_miss"),
		"wfs.answer_repeat_us":       usOf("wfs.answer_repeat"),
		"wfs.apply_ms":               msOf("wfs.apply"),
		"wfs.snapshot_publish_ms":    msOf("wfs.snapshot_publish"),
		"wfs.warm_rebase_ms":         msOf("wfs.warm_rebase"),
		"wfs.rebase_ratio":           ratio("wfs.rebase_ratio"),
		"server.handler_hit_us":      usOf("server.handler_hit"),
		"server.handler_miss_us":     usOf("server.handler_miss"),
		"server.create_decode_ms":    msOf("server.create_decode"),
		"server.cache_hit_ratio":     ratio("server.cache_hit_ratio"),
		"server.cache_evictions":     count("server.cache_evictions"),
		"server.cache_pruned":        count("server.cache_pruned"),
		"server.singleflight_shared": count("server.singleflight_shared"),
		"server.limiter_rejected":    count("server.limiter_rejected"),
		"wal.append_us":              usOf("wal.append"),
		"wal.fsync_us":               {l.counts["wal.fsync_us"], "us"},
		"wal.bytes_per_record":       {l.counts["wal.bytes_per_record"], "B"},
		"wal.fsyncs":                 count("wal.fsyncs"),
		"wal.checkpoints":            count("wal.checkpoints"),
		"wal.checkpoint_ms":          msOf("wal.checkpoint"),
		"wal.recover_ms":             msOf("wal.recover"),
		"wal.replayed_records":       count("wal.replayed_records"),
		"trace.overhead_ratio":       ratio("trace.overhead_ratio"),
	}
}
