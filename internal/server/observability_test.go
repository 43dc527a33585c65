package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// syncBuf is a goroutine-safe log sink: the server logs from request
// goroutines while tests read from the test goroutine.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitContains polls the buffer for a substring: the instrument
// middleware logs after the response body has been flushed, so the
// client can observe the response before the line lands.
func waitContains(t *testing.T, buf *syncBuf, want string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := buf.String()
		if strings.Contains(got, want) {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never contained %q:\n%s", want, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLimiterContention drives the limiter directly: with one slot held,
// a queued request must be rejected 429 after maxWait, a queued request
// whose client hung up must get 503, and the gauges/counters must track
// each outcome.
func TestLimiterContention(t *testing.T) {
	l := newLimiter(1, 30*time.Millisecond)
	entered := make(chan struct{})
	release := make(chan struct{})
	h := l.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))

	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}()
	<-entered
	if got := l.inFlight.Load(); got != 1 {
		t.Fatalf("in-flight = %d, want 1", got)
	}

	// Queued past maxWait: 429 with Retry-After.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queued request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	if got := l.timeouts.Load(); got != 1 {
		t.Errorf("timeout rejections = %d, want 1", got)
	}

	// Queued with a dead client: 503, counted separately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled request: status %d, want 503", rec.Code)
	}
	if got := l.canceled.Load(); got != 1 {
		t.Errorf("cancel rejections = %d, want 1", got)
	}

	close(release)
	<-holderDone
	if got, want := l.inFlight.Load(), int64(0); got != want {
		t.Errorf("in-flight after drain = %d, want %d", got, want)
	}
	if got := l.waiting.Load(); got != 0 {
		t.Errorf("waiting after drain = %d, want 0", got)
	}

	// Slot free again: requests pass.
	release = make(chan struct{})
	close(release)
	rec = httptest.NewRecorder()
	l.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})).
		ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("post-drain request: status %d, want 200", rec.Code)
	}
}

// TestLimiterUnboundedWait verifies maxWait=0 restores the legacy
// behavior: a queued request waits until the slot frees, however long.
func TestLimiterUnboundedWait(t *testing.T) {
	l := newLimiter(1, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	h := l.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-entered: // second request: slot obtained after release
		default:
			close(entered)
			<-release
		}
	}))
	go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	<-entered
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
		done <- rec.Code
	}()
	// Give the second request time to queue, then free the slot.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("unbounded queued request: status %d, want 200", code)
	}
}

func TestRecoverPanics(t *testing.T) {
	buf := &syncBuf{}
	h := recoverPanics(log.New(buf, "", 0), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Errorf("500 body = %q, want internal error", rec.Body.String())
	}
	if !strings.Contains(buf.String(), "boom") {
		t.Errorf("panic value not logged: %q", buf.String())
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and checks the
// exposition covers every advertised area: per-route request metrics
// (labeled by mux pattern, not raw path), limiter gauges, and
// per-session engine counters — and none of the retired answer-reuse
// families.
func TestMetricsEndpoint(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("w", winMove)
	var qr QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr); code != 200 {
		t.Fatalf("repeat query: status %d", code)
	}

	resp, err := http.Get(c.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		// Request metrics labeled by registered route pattern.
		`wfsd_http_requests_total{route="POST /v1/sessions/{name}/query",code="200"} 2`,
		`wfsd_http_request_duration_seconds_bucket{route="POST /v1/sessions/{name}/query",le="+Inf"} 2`,
		`wfsd_http_request_duration_seconds_count{route="POST /v1/sessions/{name}/query"} 2`,
		`wfsd_http_requests_total{route="POST /v1/sessions",code="201"} 1`,
		// Limiter saturation.
		"wfsd_limiter_in_flight",
		"wfsd_limiter_waiting 0",
		fmt.Sprintf("wfsd_limiter_max_concurrent %d", DefaultMaxConcurrent),
		`wfsd_limiter_rejected_total{reason="timeout"} 0`,
		`wfsd_limiter_rejected_total{reason="canceled"} 0`,
		// Per-session engine counters (the query built at least one rung).
		`wfsd_session_facts{session="w"} 3`,
		`wfsd_session_builds_total{session="w"}`,
		`wfsd_session_phase_seconds_total{session="w",phase="solve"}`,
		`wfsd_session_chase_atoms{session="w"}`,
		"wfsd_sessions 1",
		"wfsd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The four answer-reuse families and the shared-computation counter
	// are gone with the mechanism they measured.
	for _, gone := range []string{"wfsd_answer_", "wfsd_singleflight_"} {
		if strings.Contains(body, gone) {
			t.Errorf("scrape still carries a removed %s* family", gone)
		}
	}
	if strings.Contains(body, "/v1/sessions/w/") {
		t.Error("scrape leaks raw request paths into route labels")
	}
	// Every family emitted has HELP/TYPE headers.
	if strings.Count(body, "# HELP ") != strings.Count(body, "# TYPE ") {
		t.Error("unbalanced HELP/TYPE headers")
	}
	if t.Failed() {
		t.Logf("scrape body:\n%s", body)
	}
}

// TestQueryTrace exercises ?trace=1: the response carries a phase tree
// rooted at the query whose children sum to no more than the root's
// wall time, every traced request evaluates and carries its own trace,
// and untraced responses carry no trace.
func TestQueryTrace(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("w", winMove)

	var qr QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query?trace=1", QueryRequest{Query: "win(b)"}, &qr); code != 200 {
		t.Fatalf("traced query: status %d", code)
	}
	if qr.Answer != "true" {
		t.Fatalf("answer = %q, want true", qr.Answer)
	}
	et := qr.Trace
	if et == nil {
		t.Fatal("traced response has no trace")
	}
	if et.Name != "query" || et.DurUS <= 0 {
		t.Fatalf("trace root = %+v, want named query with positive duration", et)
	}
	if sum := et.SumChildrenUS(); sum > et.DurUS {
		t.Errorf("children sum %dus exceeds root %dus", sum, et.DurUS)
	}
	ladder := et.Find("ladder")
	if ladder == nil {
		t.Fatalf("trace has no ladder phase:\n%s", et.Format())
	}
	foundDepth := false
	for _, ch := range ladder.Children {
		if strings.HasPrefix(ch.Name, "depth-") {
			foundDepth = true
			if sum := ch.SumChildrenUS(); sum > ch.DurUS {
				t.Errorf("depth children sum %dus exceeds span %dus", sum, ch.DurUS)
			}
		}
	}
	if !foundDepth {
		t.Errorf("ladder has no depth spans:\n%s", et.Format())
	}

	// A second traced query carries its own trace.
	if code := c.do("POST", "/v1/sessions/w/query?trace=1", QueryRequest{Query: "win(b)"}, &qr); code != 200 || qr.Trace == nil {
		t.Fatalf("second traced query: status %d trace %v", code, qr.Trace != nil)
	}

	// Untraced responses never carry a trace.
	var plain QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &plain); code != 200 || plain.Trace != nil {
		t.Fatalf("untraced query: status %d trace %v, want none", code, plain.Trace)
	}
}

// TestConcurrentTracedQueries mixes traced queries, untraced queries,
// and writes; under -race it proves the span recorder and the metrics
// paths are safe with the server's real concurrency.
func TestConcurrentTracedQueries(t *testing.T) {
	c := newTestClient(t, Config{MaxConcurrent: 8})
	c.mustCreate("w", winMove)

	const goroutines = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case g == 0 && i%3 == 2:
					var fr AddFactsResponse
					code := c.do("POST", "/v1/sessions/w/facts", AddFactsRequest{
						Facts: []Fact{{Pred: "move", Args: []string{fmt.Sprintf("t%d", i), "c"}}},
					}, &fr)
					if code != 200 {
						errs <- fmt.Errorf("goroutine %d: add fact status %d", g, code)
					}
				case g%2 == 0:
					var qr QueryResponse
					code := c.do("POST", "/v1/sessions/w/query?trace=1", QueryRequest{Query: "win(b)"}, &qr)
					if code != 200 || qr.Trace == nil {
						errs <- fmt.Errorf("goroutine %d: traced query status %d trace %v", g, code, qr.Trace != nil)
					}
				default:
					var qr QueryResponse
					code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr)
					if code != 200 {
						errs <- fmt.Errorf("goroutine %d: query status %d", g, code)
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
	// The scrape itself must survive concurrent history.
	resp, err := http.Get(c.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-load scrape: status %d", resp.StatusCode)
	}
}

// TestSlowQueryLog arms a 1ns threshold so every query counts as slow,
// and checks the structured line carries the phase breakdown.
func TestSlowQueryLog(t *testing.T) {
	buf := &syncBuf{}
	c := newTestClient(t, Config{
		SlowQueryThreshold: time.Nanosecond,
		Logger:             log.New(buf, "", 0),
	})
	c.mustCreate("w", winMove)
	var qr QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	line := waitContains(t, buf, "slow-query")
	for _, want := range []string{`session="w"`, `query="? win(b)."`, "dur=", "phases=", "ladder="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q:\n%s", want, line)
		}
	}
	// A repeated query computes again on the snapshot, so it logs again.
	before := strings.Count(buf.String(), "slow-query")
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr); code != 200 {
		t.Fatalf("repeat query: status %d", code)
	}
	if after := strings.Count(buf.String(), "slow-query"); after != before+1 {
		t.Errorf("repeated query logged %d -> %d slow-query lines, want one more", before, after)
	}

	var ss ServerStatsResponse
	c.do("GET", "/v1/stats", nil, &ss)
	if ss.SlowQueries != 2 {
		t.Errorf("stats slow_queries = %d, want 2", ss.SlowQueries)
	}
}

// TestAccessLog checks the structured access-log line: method, the
// registered route pattern (bounded cardinality), raw path, status,
// duration, and the session name pulled from the path.
func TestAccessLog(t *testing.T) {
	buf := &syncBuf{}
	c := newTestClient(t, Config{AccessLogger: log.New(buf, "", 0)})
	c.mustCreate("w", winMove)
	var qr QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	got := waitContains(t, buf, `route="POST /v1/sessions/{name}/query"`)
	for _, want := range []string{
		"method=POST",
		`path="/v1/sessions/w/query"`,
		"status=200",
		"dur=",
		`session="w"`,
		`route="POST /v1/sessions" path="/v1/sessions" status=201`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("access log missing %q:\n%s", want, got)
		}
	}
}

// TestServerStatsLimiterFields checks the /v1/stats additions surface
// the limiter configuration and saturation counters.
func TestServerStatsLimiterFields(t *testing.T) {
	c := newTestClient(t, Config{MaxConcurrent: 3, MaxQueueWait: 2 * time.Second})
	var ss ServerStatsResponse
	if code := c.do("GET", "/v1/stats", nil, &ss); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if ss.MaxConcurrent != 3 || ss.MaxQueueWaitMS != 2000 {
		t.Errorf("limiter config = max %d wait %dms, want 3/2000", ss.MaxConcurrent, ss.MaxQueueWaitMS)
	}
	if ss.Waiting != 0 || ss.RejectedTimeout != 0 || ss.RejectedCanceled != 0 {
		t.Errorf("idle limiter reports saturation: %+v", ss)
	}
}

// TestSessionStatsEngineCounters checks /v1/sessions/{name}/stats now
// carries the engine's lifetime build counters.
func TestSessionStatsEngineCounters(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("w", winMove)
	var qr QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	var st SessionStatsResponse
	if code := c.do("GET", "/v1/sessions/w/stats", nil, &st); code != 200 {
		t.Fatalf("session stats: status %d", code)
	}
	if st.Engine.Builds < 1 {
		t.Errorf("engine builds = %d, want >= 1", st.Engine.Builds)
	}
	if st.Engine.SolveNS <= 0 {
		t.Errorf("engine solve_ns = %d, want > 0", st.Engine.SolveNS)
	}
	if st.Engine.ChaseAtoms <= 0 {
		t.Errorf("engine chase_atoms = %d, want > 0", st.Engine.ChaseAtoms)
	}
}

// TestSessionStatsSCCShapeSurvivesMutation: a mutation's warm start does
// not condense the whole program, so the model it publishes carries the
// SCC shape of the last full solve forward. The counts must stay non-zero
// across mutations instead of silently changing meaning.
func TestSessionStatsSCCShapeSurvivesMutation(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("w", winMove)
	shape := func(when string) ModelStats {
		t.Helper()
		var qr QueryResponse
		if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr); code != 200 {
			t.Fatalf("%s: query status %d", when, code)
		}
		var st SessionStatsResponse
		if code := c.do("GET", "/v1/sessions/w/stats", nil, &st); code != 200 {
			t.Fatalf("%s: session stats status %d", when, code)
		}
		// win(a) and win(b) block each other: one negation-cyclic SCC.
		if st.Model.SCCCount == 0 || st.Model.HardSCCs == 0 || st.Model.LargestSCC == 0 {
			t.Errorf("%s: scc_count=%d hard_sccs=%d largest_scc=%d, want all non-zero",
				when, st.Model.SCCCount, st.Model.HardSCCs, st.Model.LargestSCC)
		}
		return st.Model
	}
	before := shape("after create")
	for i, f := range []string{"d", "e"} {
		if code := c.do("POST", "/v1/sessions/w/facts", AddFactsRequest{
			Facts: []Fact{{Pred: "move", Args: []string{"c", f}}},
		}, nil); code != 200 {
			t.Fatalf("mutation %d: status %d", i, code)
		}
		if after := shape(fmt.Sprintf("after mutation %d", i)); after.HardSCCs != before.HardSCCs {
			t.Errorf("mutation %d: hard_sccs %d, want %d", i, after.HardSCCs, before.HardSCCs)
		}
	}
}

// TestMetricsInventoryMatchesREADME keeps the README's metric inventory
// honest: a scrape of a server with every optional surface on (a
// WAL-backed session, the flight recorder) must emit exactly the
// families the table lists, with the listed types. A family added
// without a row, or deleted while its row survives, fails here.
func TestMetricsInventoryMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Metric inventory\n")
	if !ok {
		t.Fatal("README has no Metric inventory section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	row := regexp.MustCompile("(?m)^\\| `((?:wfsd|go)_[a-z_]+)` \\| ([a-z]+) \\|")
	documented := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = m[2]
	}

	c, s, _ := newDurableClient(t, t.TempDir(), wal.Options{})
	defer s.Close()
	c.mustCreate("w", winMove)
	c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "? win(b)."}, nil)
	c.mustAddFact("w", "move", "c", "d")
	_, body := c.rawGet("/metrics")
	emitted := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(strings.TrimPrefix(line, "# TYPE ")); strings.HasPrefix(line, "# TYPE ") && len(f) == 2 {
			emitted[f[0]] = f[1]
		}
	}

	for name, typ := range emitted {
		if doc, ok := documented[name]; !ok {
			t.Errorf("/metrics emits %s (%s), which the README table does not list", name, typ)
		} else if doc != typ {
			t.Errorf("%s is a %s, but the README table says %s", name, typ, doc)
		}
	}
	for name := range documented {
		if _, ok := emitted[name]; !ok {
			t.Errorf("the README table lists %s, which /metrics does not emit", name)
		}
	}
}
