package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// class groups operations by the latency metric they feed.
type class int

const (
	clRead   class = iota // query / select / truth on a warm session
	clMutate              // facts / retract acknowledgement
	clFresh               // first read of the just-mutated component
	clCreate              // POST /v1/sessions with the program text
	clFirst               // first query of a new session (cold pipeline)
	clAdmin               // delete, session info: counted, not timed
	nClasses
)

// op is one HTTP request with the answer the oracle expects.
type op struct {
	class  class
	method string
	path   string
	body   []byte
	want   want
	// text (the query or atom of a read) and facts (the batch of a
	// mutation, retracted when retract is set) are what body encodes, kept
	// for the layer run, which feeds the layers directly.
	text    string
	facts   []fact
	retract bool
	// apply moves the oracle to the state this operation leaves the
	// session in; the runner calls it when it issues the operation.
	apply func()
}

// want is the expected reply. Zero fields are not checked, except exact,
// which is checked whenever answer is set: an inexact answer must never
// pass for an exact one (nor the reverse).
type want struct {
	status int
	answer truth      // "answer" of a query
	exact  bool       // "stats.exact" of a query
	truth  truth      // "truth" of a truth request
	tuples [][]string // "tuples" of a select; checked when non-nil
	epoch  uint64     // "epoch" of a mutation ack or session info; checked when hasEp
	hasEp  bool
	facts  int // "facts" of a create; checked when > 0
	// "wal.replayed_records" of /v1/stats after a restart; checked when
	// hasReplayed.
	replayed    int
	hasReplayed bool
}

const session = "s"

func sessionPath(suffix string) string { return "/v1/sessions/" + session + suffix }

func queryOp(cl class, q string, ans truth, exact bool) op {
	return op{class: cl, method: "POST", path: sessionPath("/query"), text: q,
		body: []byte(`{"query":` + strconv.Quote(q) + `}`),
		want: want{status: 200, answer: ans, exact: exact}}
}

func truthOp(atom string, t truth) op {
	return op{class: clRead, method: "POST", path: sessionPath("/truth"), text: atom,
		body: []byte(`{"atom":` + strconv.Quote(atom) + `}`),
		want: want{status: 200, truth: t}}
}

func selectOp(q string, tuples [][]string) op {
	return op{class: clRead, method: "POST", path: sessionPath("/select"), text: q,
		body: []byte(`{"query":` + strconv.Quote(q) + `}`),
		want: want{status: 200, tuples: tuples}}
}

type fact struct {
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

func mutateOp(retract bool, epoch uint64, facts ...fact) op {
	body, _ := json.Marshal(map[string][]fact{"facts": facts}) // strings only: cannot fail
	suffix := "/facts"
	if retract {
		suffix = "/retract"
	}
	return op{class: clMutate, method: "POST", path: sessionPath(suffix), body: body,
		facts: facts, retract: retract,
		want: want{status: 200, epoch: epoch, hasEp: true}}
}

// workload is one traffic mix over one knowledge base.
type workload struct {
	name    string
	durable bool   // wfsd runs with -data-dir and -fsync=true
	program string // the only input the server ever sees, besides the ops
	facts   int
	sizes   map[string]int

	create op
	first  op
	// clients are the closed-loop operation sequences of the measured
	// phase, one per connection. Each call yields the next operation.
	clients []func() op
	// think is how long client 1 waits after each reply before its next
	// request (client 0 never waits). See readerThink.
	think time.Duration
	// round yields the next writer round for a session whose last
	// acknowledged epoch is e: a mutation, the read that must see it, the
	// mutation that undoes it, the read that must see that. Every set-up
	// ends with one, and the writers of the measured phase issue nothing
	// else.
	round func(e uint64) []op
	// samples yields verification reads for the state the operations
	// issued so far have left the session in.
	samples func() []op
	// reset returns the oracle to the state of a freshly created session.
	reset func()
	// epoch is the last mutation epoch the oracle expects to be
	// acknowledged.
	epoch uint64
}

var workloadNames = []string{"read_mix", "mutate_durable", "cold_start", "onto_ladder"}

// scaled shrinks a size for the smoke test (scale is 1 otherwise), never
// below a floor that keeps every operation class populated.
func scaled(n int, scale float64, floor int) int {
	return max(floor, int(math.Round(float64(n)*scale)))
}

func newWorkload(name string, seed int64, scale float64) (*workload, error) {
	var w *workload
	switch name {
	case "read_mix":
		w = readMix(seed, scale)
	case "mutate_durable":
		w = mutateDurable(seed, scale)
	case "cold_start":
		w = coldStart(seed, scale)
	case "onto_ladder":
		w = ontoLadder(seed, scale)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	w.name = name
	body, err := json.Marshal(map[string]string{"name": session, "program": w.program})
	if err != nil {
		return nil, err
	}
	w.create = op{class: clCreate, method: "POST", path: "/v1/sessions", body: body,
		want: want{status: 201, facts: w.facts}}
	return w, nil
}

func winQuery(c, i int) string { return "? win(" + node(c, i) + ")." }

func moveFact(c, i int) fact {
	return fact{Pred: "move", Args: []string{node(c, i), node(c, i+1)}}
}

// chainSamples reads fixed atoms of untouched chains plus, when a chain
// is currently cut, its head — the atom the cut flips.
func chainSamples(kb chainsKB, cutComp *int) func() []op {
	return func() []op {
		var ops []op
		for j := 0; j < 6; j++ {
			c, i := kb.k-1-j%kb.k, (j*7)%(kb.l+1)
			ops = append(ops, queryOp(clRead, winQuery(c, i), chainWin(kb.l, kb.cut(), i, false), true))
		}
		if *cutComp >= 0 {
			ops = append(ops, queryOp(clRead, winQuery(*cutComp, 0), chainWin(kb.l, kb.cut(), 0, true), true))
		}
		return ops
	}
}

// cutRound is one writer round on chain c from epoch e: retract the mid
// edge, read the head (must flip), add the edge back, read the head
// (must flip back).
func (w *workload) cutRound(kb chainsKB, c int, e uint64, cutComp *int) []op {
	cut := kb.cut()
	retract := mutateOp(true, e+1, moveFact(c, cut))
	retract.apply = func() { w.epoch, *cutComp = e+1, c }
	add := mutateOp(false, e+2, moveFact(c, cut))
	add.apply = func() { w.epoch, *cutComp = e+2, -1 }
	return []op{
		retract, queryOp(clFresh, winQuery(c, 0), chainWin(kb.l, cut, 0, true), true),
		add, queryOp(clFresh, winQuery(c, 0), chainWin(kb.l, cut, 0, false), true),
	}
}

// queued turns a refill function into an operation sequence. refill is
// called when the queue runs dry and must return at least one operation.
func queued(refill func() []op) func() op {
	var q []op
	return func() op {
		if len(q) == 0 {
			q = refill()
		}
		o := q[0]
		q = q[1:]
		return o
	}
}

// writer is the operation sequence of a client that issues writer rounds
// back to back. A round is drawn when its predecessor has been issued in
// full, so w.epoch is the epoch it starts from.
func (w *workload) writer() func() op {
	return queued(func() []op { return w.round(w.epoch) })
}

// readerThink paces the reader that runs beside a writer. The writer
// mutates back to back, and a read that arrives during a mutation waits
// for the rest of it; a reader without think time squeezes a few fast
// reads into every gap between two mutations, so its latencies split
// into two modes whose shares hinge on that race, and p50 and p90 jump
// between the modes from run to run. A reader that comes back 5 ms after
// each reply — longer than the gap, much shorter than a mutation —
// nearly always meets a mutation in flight, so both percentiles sit
// inside the one mode that matters here: how long a reader is held up by
// a writer.
const readerThink = 5 * time.Millisecond

const (
	chainLen    = 50 // l ≡ 2 (mod 4): cutting the mid edge flips the head
	hotKeys     = 512
	writerShare = 10 // the writer owns one chain in writerShare
)

func readMix(seed int64, scale float64) *workload {
	kb := chainsKB{k: scaled(2000, scale, 40), l: chainLen}
	w := &workload{program: kb.program(), facts: kb.facts(),
		sizes: map[string]int{"chains": kb.k, "chain_len": kb.l, "hot_keys": hotKeys}}
	w.first = queryOp(clFirst, winQuery(0, 0), chainWin(kb.l, kb.cut(), 0, false), true)
	rng := rand.New(rand.NewSource(seed))
	hot := make([][2]int, hotKeys)
	for i := range hot {
		hot[i] = [2]int{rng.Intn(kb.k), rng.Intn(kb.l + 1)}
	}
	// One reader, not two: two clients and the server saturate the two
	// CPUs, and every metric of the workload then swings three times as
	// far from run to run (measured: ops_per_s within 24 % over eight runs
	// with two clients, within 8 % with one, same median latency).
	r := rand.New(rand.NewSource(seed*7919 + 1))
	w.clients = []func() op{func() op {
		c, i := r.Intn(kb.k), r.Intn(kb.l+1)
		switch p := r.Float64(); {
		case p < 0.70: // first-seen point query: the cache cannot hold 10^5 keys
		case p < 0.90:
			h := hot[r.Intn(hotKeys)]
			c, i = h[0], h[1]
		case p < 0.95:
			return truthOp("win("+node(c, i)+")", chainWin(kb.l, kb.cut(), i, false))
		default:
			i = r.Intn(kb.l)
			tuples := [][]string{}
			if chainWin(kb.l, kb.cut(), i+1, false) == tFalse {
				tuples = [][]string{{node(c, i+1)}}
			}
			return selectOp("? move("+node(c, i)+",Y), not win(Y).", tuples)
		}
		return queryOp(clRead, winQuery(c, i), chainWin(kb.l, kb.cut(), i, false), true)
	}}
	cutComp := -1
	w.round = func(e uint64) []op { return w.cutRound(kb, rng.Intn(kb.k), e, &cutComp) }
	w.samples = chainSamples(kb, &cutComp)
	w.reset = func() { w.epoch, cutComp = 0, -1 }
	return w
}

func mutateDurable(seed int64, scale float64) *workload {
	kb := chainsKB{k: scaled(2000, scale, 40), l: chainLen}
	w := &workload{program: kb.program(), facts: kb.facts(), durable: true,
		sizes: map[string]int{"chains": kb.k, "chain_len": kb.l, "writer_chains": kb.k / writerShare}}
	w.first = queryOp(clFirst, winQuery(0, 0), chainWin(kb.l, kb.cut(), 0, false), true)
	// The writer owns the first chains, the reader the rest, so no read
	// races a mutation of the atom it asks about.
	own := kb.k / writerShare
	wr := rand.New(rand.NewSource(seed*7919 + 1))
	cutComp := -1
	w.round = func(e uint64) []op { return w.cutRound(kb, wr.Intn(own), e, &cutComp) }
	rd := rand.New(rand.NewSource(seed*7919 + 2))
	reader := func() op {
		c, i := own+rd.Intn(kb.k-own), rd.Intn(kb.l+1)
		return queryOp(clRead, winQuery(c, i), chainWin(kb.l, kb.cut(), i, false), true)
	}
	w.clients, w.think = []func() op{w.writer(), reader}, readerThink
	w.samples = chainSamples(kb, &cutComp)
	w.reset = func() { w.epoch, cutComp = 0, -1 }
	return w
}

const readsPerModule = 10

func coldStart(seed int64, scale float64) *workload {
	kb := newMixedKB(scaled(20000, scale, 300), scaled(17000, scale, 300),
		scaled(34000, scale, 600), scaled(33000, scale, 300), seed)
	w := &workload{program: kb.program(), facts: kb.facts(),
		sizes: map[string]int{"persons": kb.persons, "game_nodes": kb.nodes, "game_edges": len(kb.edges),
			"reach_chain": kb.chain, "reads_per_module": readsPerModule}}
	person := func(i int) string { return "p" + strconv.Itoa(i) }
	benefits := func(cl class, i int, old bool) op {
		return queryOp(cl, "? benefits("+person(i)+").", stratTruth("benefits", i, old), true)
	}
	w.first = benefits(clFirst, 2, false)
	r := rand.New(rand.NewSource(seed*7919 + 1))
	madeOld := -1 // person currently made old by a mutation
	w.reset = func() { w.epoch, madeOld = 0, -1 }
	strat := []string{"employed", "seeker", "retired", "benefits"}
	// One session lifecycle. The setup left a session behind, so each
	// round starts by deleting its predecessor.
	lifecycle := func() []op {
		create := w.create
		create.apply = w.reset
		ops := []op{{class: clAdmin, method: "DELETE", path: sessionPath(""), want: want{status: 204}},
			create, w.first}
		for j := 0; j < readsPerModule; j++ {
			i, pred := r.Intn(kb.persons), strat[r.Intn(len(strat))]
			ops = append(ops, queryOp(clRead, "? "+pred+"("+person(i)+").", stratTruth(pred, i, false), true))
			g := r.Intn(kb.nodes)
			ops = append(ops, queryOp(clRead, "? win(g"+strconv.Itoa(g)+").", kb.winTruth[g], true))
			v := strconv.Itoa(r.Intn(kb.chain))
			if j%2 == 0 {
				ops = append(ops, queryOp(clRead, "? reach(v"+v+").", tTrue, true))
			} else {
				ops = append(ops, queryOp(clRead, "? edge(v"+v+",X), not reach(X).", tFalse, true))
			}
		}
		return append(ops, w.round(0)...)
	}
	// One writer round: make a seeker who is not retired old (the benefits
	// must go), take it back (they must return).
	w.round = func(e uint64) []op {
		x := 3*r.Intn(kb.persons/3) + 2
		old := fact{Pred: "oldAge", Args: []string{person(x)}}
		add, retract := mutateOp(false, e+1, old), mutateOp(true, e+2, old)
		add.apply = func() { w.epoch, madeOld = e+1, x }
		retract.apply = func() { w.epoch, madeOld = e+2, -1 }
		return []op{add, benefits(clFresh, x, true), retract, benefits(clFresh, x, false)}
	}
	w.clients = []func() op{queued(lifecycle)}
	w.samples = func() []op {
		ops := []op{benefits(clRead, 2, madeOld == 2), benefits(clRead, 5, madeOld == 5),
			queryOp(clRead, "? seeker("+person(1)+").", tTrue, true),
			queryOp(clRead, "? win(g0).", kb.winTruth[0], true),
			queryOp(clRead, "? win(g1).", kb.winTruth[1], true),
			queryOp(clRead, "? reach(v"+strconv.Itoa(kb.chain)+").", tTrue, true)}
		if madeOld >= 0 {
			ops = append(ops, benefits(clRead, madeOld, true))
		}
		return ops
	}
	return w
}

func ontoLadder(seed int64, scale float64) *workload {
	kb := ontoKB{n: scaled(2000, scale, 40)}
	w := &workload{program: kb.program(), facts: kb.facts(),
		sizes: map[string]int{"seed_pairs": kb.n}}
	tQuery := func(cl class, k string, seeded bool) op {
		return queryOp(cl, "? t("+k+").", example4Truth("t", seeded), false)
	}
	w.first = tQuery(clFirst, "k0", true)
	added, fresh := "", 0
	// One writer round: add a fresh seed pair (one atomic batch of two
	// facts), read its t (must be true), retract it, read again (false).
	w.round = func(e uint64) []op {
		z := "z" + strconv.Itoa(fresh)
		fresh++
		pair := []fact{{Pred: "r", Args: []string{z, z, "y" + z}}, {Pred: "p", Args: []string{z, z}}}
		add, retract := mutateOp(false, e+1, pair...), mutateOp(true, e+2, pair...)
		add.apply = func() { w.epoch, added = e+1, z }
		retract.apply = func() { w.epoch, added = e+2, "" }
		return []op{add, tQuery(clFresh, z, true), retract, tQuery(clFresh, z, false)}
	}
	rd := rand.New(rand.NewSource(seed*7919 + 2))
	reader := func() op {
		k := "k" + strconv.Itoa(rd.Intn(kb.n))
		switch rd.Intn(3) {
		case 0:
			return tQuery(clRead, k, true)
		case 1:
			return queryOp(clRead, "? s("+k+").", example4Truth("s", true), false)
		default:
			return queryOp(clRead, "? p("+k+",Y), not q(Y).", example4Truth("pNotQ", true), false)
		}
	}
	w.clients, w.think = []func() op{w.writer(), reader}, readerThink
	w.samples = func() []op {
		ops := []op{tQuery(clRead, "k0", true), tQuery(clRead, "unseeded", false),
			queryOp(clRead, "? s(k1).", tFalse, false),
			queryOp(clRead, "? p(k2,Y), not q(Y).", tTrue, false)}
		if added != "" {
			ops = append(ops, tQuery(clRead, added, true))
		}
		return ops
	}
	w.reset = func() { w.epoch, added = 0, "" }
	return w
}
