package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// setupRounds is how many times a run sets the server up from nothing;
// setup_s, first_answer_p50_ms and peak_rss_mb are medians over them.
// recoverRounds is how many times it crashes and recovers the server;
// nothing is written in between, so each round replays the same log.
const (
	setupRounds   = 7
	recoverRounds = 5
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	root    string // repository root
	bin     string // built wfsd
	out     string // where run records and span files go
	seed    int64
	seconds float64
	scale   float64 // 1 but in the smoke test, which shrinks every knowledge base
	rounds  int     // cold set-ups per end-to-end run
}

// liveRun is what one run against a real wfsd child leaves behind.
type liveRun struct {
	w        *workload
	flags    []string
	setupS   []float64
	setupRSS []float64 // VmHWM in MB at the end of each set-up
	wallS    float64   // measured phase
	okOps    int       // correctly answered operations of the measured phase
	recoverS []float64
	liveRSS  float64   // VmHWM in MB of the server the measured phase ran on
	ctl      *client   // set-up traffic
	clients  []*client // measured phase
	rec      *client   // recovery traffic
	// Trace runs only: reads replayed on the idle server before the
	// measured phase, and the server's own counters over that phase.
	idle  *client
	probe liveProbe
}

func (r *liveRun) all() []*client { return append([]*client{r.ctl, r.rec, r.idle}, r.clients...) }

// measuredLat leaves out the verification reads of setup and recovery.
func (r *liveRun) measuredLat(cl class) []float64 {
	var xs []float64
	for _, c := range r.clients {
		xs = append(xs, c.lat[cl]...)
	}
	return xs
}

// Cold-path and writer samples come from every set-up and from the
// measured phase (the sessions cold_start creates, the rounds the writers
// issue); recovery's re-create is left out, it is what recover_s reports.
// Only client 0 creates and writes.
func (r *liveRun) creates() []float64 {
	return append(slices.Clone(r.ctl.lat[clCreate]), r.clients[0].lat[clCreate]...)
}

func (r *liveRun) firstAnswers() []float64 {
	return append(slices.Clone(r.ctl.first), r.clients[0].first...)
}

func (r *liveRun) writes(cl class) []float64 {
	return append(slices.Clone(r.ctl.lat[cl]), r.clients[0].lat[cl]...)
}

// writeRounds is the time each complete writer round took: two mutations
// and the two reads that must see them. The halves of a round cost
// differently (a fresh read after a re-add takes three times as long as
// one after a retraction), so a median over single operations sits
// between two equally populated modes and jumps from run to run; over
// rounds there is one mode.
func (r *liveRun) writeRounds() []float64 {
	var out []float64
	for _, c := range []*client{r.ctl, r.clients[0]} {
		m, f := c.lat[clMutate], c.lat[clFresh]
		for i := 0; i+1 < min(len(m), len(f)); i += 2 {
			out = append(out, m[i]+f[i]+m[i+1]+f[i+1])
		}
	}
	return out
}

func (r *liveRun) counts() (attempted, failed int, failures []string) {
	for _, c := range r.all() {
		attempted += c.attempted
		failed += c.failed
		failures = append(failures, c.failures...)
	}
	return
}

func serverFlags(w *workload, dataDir string) []string {
	if !w.durable {
		return nil
	}
	return []string{"-data-dir", dataDir, "-fsync=true"}
}

// runLive drives one workload against a real wfsd: cfg.rounds cold
// set-ups, the closed-loop measured phase, then SIGKILL and recovery. A
// non-nil idle makes it a trace run: those reads are replayed on the idle
// server first, and the server's counters are read before and after the
// measured phase.
func runLive(cfg config, w *workload, idle []op) (*liveRun, error) {
	tmp, err := os.MkdirTemp(filepath.Join(cfg.root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	dataDir := filepath.Join(tmp, "data")
	// Control traffic, recovery traffic and client 0 never overlap, so
	// they share one connection; client 1 has the other.
	r := &liveRun{w: w, flags: serverFlags(w, dataDir), ctl: newClient()}
	r.rec, r.idle = &client{hc: r.ctl.hc}, &client{hc: r.ctl.hc}
	r.clients = []*client{{hc: r.ctl.hc}}
	for range w.clients[1:] {
		r.clients = append(r.clients, newClient())
	}
	defer func() {
		for _, c := range r.clients {
			c.close()
		}
	}()

	var srv *server
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	fatal := func(stage string, c *client) error {
		srv.kill() // its stderr is complete once it has exited
		return fmt.Errorf("%s: %s failed: %v\nwfsd stderr:\n%s", w.name, stage, c.failures, srv.stderr.String())
	}
	// bringUp execs wfsd and makes it serve verified answers: create the
	// session unless the data directory brought it back, run the first
	// query, check the samples.
	bringUp := func(c *client, recovered bool) error {
		var err error
		if srv, err = startServer(cfg.bin, r.flags, c.hc); err != nil {
			return err
		}
		c.base = srv.base
		ops := []op{w.create, w.first}
		if !recovered {
			w.reset()
		} else {
			// The last acknowledged epoch, reached by replaying exactly the
			// mutations acknowledged since the create-time checkpoint.
			ops = []op{
				{class: clAdmin, method: "GET", path: sessionPath(""), want: want{status: 200, epoch: w.epoch, hasEp: true}},
				{class: clAdmin, method: "GET", path: "/v1/stats", want: want{status: 200, replayed: int(w.epoch), hasReplayed: true}},
			}
		}
		for _, o := range append(ops, w.samples()...) {
			if !c.do(o) {
				return fatal("bring-up", c)
			}
		}
		return nil
	}

	for i := 0; i < cfg.rounds; i++ {
		if srv != nil {
			srv.kill()
			r.ctl.close()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := bringUp(r.ctl, false); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		// One writer round on the quiet session, then the high-water mark:
		// the same operations in every round of every run, so the memory
		// figure does not hinge on how far a timed phase got.
		for _, o := range w.round(w.epoch) {
			if !r.ctl.do(o) {
				return nil, fatal("set-up writer round", r.ctl)
			}
		}
		rss, err := srv.peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.setupRSS = append(r.setupRSS, rss)
	}

	traced := idle != nil
	var before liveProbe
	var deleted engineCounters // of sessions the measured phase deleted
	if traced {
		r.idle.base = srv.base
		for _, o := range idle {
			r.idle.do(o)
		}
		if before, err = readProbe(srv, r.ctl); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for i, next := range w.clients {
		c := r.clients[i]
		c.base = srv.base
		var think time.Duration
		if i > 0 {
			think = w.think
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := next()
				if traced && o.method == "DELETE" {
					// The session's engine counters die with it.
					if e, err := readEngine(r.ctl); err == nil {
						deleted.add(e)
					}
				}
				c.do(o)
				time.Sleep(think)
			}
		}()
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	for _, c := range r.clients {
		r.okOps += c.attempted - c.failed
	}
	if traced {
		after, err := readProbe(srv, r.ctl)
		if err != nil {
			return nil, err
		}
		r.probe = after.minus(before)
		r.probe.engine.add(deleted)
	}
	if r.liveRSS, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}

	// Crash and recover. Without a data directory the state is lost by
	// design: the client re-creates the session from the program text.
	for i := 0; i < recoverRounds; i++ {
		start = time.Now()
		srv.kill()
		r.ctl.close()
		if err := bringUp(r.rec, w.durable); err != nil {
			return nil, err
		}
		r.recoverS = append(r.recoverS, time.Since(start).Seconds())
	}
	return r, nil
}

// endToEnd reduces a live run to the end-to-end metrics.
func (r *liveRun) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":             {median(r.setupS), "s"},
		"ops_per_s":           {float64(r.okOps) / r.wallS, "1/s"},
		"query_p50_ms":        {median(r.measuredLat(clRead)), "ms"},
		"write_round_p50_ms":  {median(r.writeRounds()), "ms"},
		"first_answer_p50_ms": {median(r.firstAnswers()), "ms"},
		"recover_s":           {median(r.recoverS), "s"},
		"peak_rss_mb":         {median(r.setupRSS), "MB"},
	}
}

// sampleCounts says how many observations stand behind the latency
// metrics of each operation class.
func (r *liveRun) sampleCounts() map[string]int {
	return map[string]int{
		"setup":        len(r.setupS),
		"query":        len(r.measuredLat(clRead)),
		"write_round":  len(r.writeRounds()),
		"mutate":       len(r.writes(clMutate)),
		"fresh_read":   len(r.writes(clFresh)),
		"create":       len(r.creates()),
		"first_answer": len(r.firstAnswers()),
		"recover":      len(r.recoverS),
	}
}
