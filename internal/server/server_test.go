package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// testClient wraps an httptest server with JSON request helpers.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, cfg Config) *testClient {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testClient{t: t, srv: ts}
}

// do issues a JSON request and decodes the response body into out (unless
// nil), returning the status code.
func (c *testClient) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatalf("new request: %v", err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("read response: %v", err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

func (c *testClient) mustCreate(name, program string) {
	c.t.Helper()
	code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: name, Program: program}, nil)
	if code != http.StatusCreated {
		c.t.Fatalf("create session %q: status %d", name, code)
	}
}

const winMove = `
	move(a,b). move(b,a). move(b,c).
	move(X,Y), not win(Y) -> win(X).
`

const authorship = `
	scientist(john).
	conferencePaper(pods13).
	scientist(X) -> isAuthorOf(X, Y).
	conferencePaper(X) -> article(X).
`

func TestSessionLifecycle(t *testing.T) {
	c := newTestClient(t, Config{})

	// Empty registry.
	var list SessionListResponse
	if code := c.do("GET", "/v1/sessions", nil, &list); code != 200 || len(list.Sessions) != 0 {
		t.Fatalf("initial list: code %d, sessions %v", code, list.Sessions)
	}

	// Create, duplicate create, get, delete, get-after-delete.
	var info SessionInfo
	if code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "w", Program: winMove}, &info); code != 201 {
		t.Fatalf("create: status %d", code)
	}
	if info.Name != "w" || info.Facts != 3 {
		t.Errorf("create info = %+v, want name w with 3 facts", info)
	}
	if code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "w", Program: winMove}, nil); code != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", code)
	}
	if code := c.do("GET", "/v1/sessions/w", nil, &info); code != 200 || info.Name != "w" {
		t.Errorf("get: status %d info %+v", code, info)
	}
	if code := c.do("DELETE", "/v1/sessions/w", nil, nil); code != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", code)
	}
	if code := c.do("GET", "/v1/sessions/w", nil, nil); code != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", code)
	}
	if code := c.do("DELETE", "/v1/sessions/w", nil, nil); code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", code)
	}
}

func TestSessionLimitAndValidation(t *testing.T) {
	c := newTestClient(t, Config{MaxSessions: 1})
	if code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "", Program: "p(a)."}, nil); code != http.StatusBadRequest {
		t.Errorf("empty name: status %d, want 400", code)
	}
	if code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "x", Program: "p(a"}, nil); code != http.StatusBadRequest {
		t.Errorf("syntax error program: status %d, want 400", code)
	}
	// A failed compile releases its name reservation, so the slot is free.
	c.mustCreate("only", "p(a).")
	if code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "two", Program: "q(b)."}, nil); code != http.StatusTooManyRequests {
		t.Errorf("over limit: status %d, want 429", code)
	}
}

func TestQueryEndpoints(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("w", winMove)

	// NBCQ answering: win(c) is false (c has no moves), win(b) true,
	// win(a)/win(b) cycle a-b is resolved by b->c.
	var qr QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	if qr.Answer != "true" {
		t.Errorf("win(b) = %s, want true", qr.Answer)
	}
	if qr.Stats == nil || len(qr.Stats.Depths) == 0 {
		t.Errorf("query stats missing: %+v", qr.Stats)
	}
	if qr.Query != "? win(b)." {
		t.Errorf("normalized query = %q", qr.Query)
	}

	// Non-Boolean select.
	var sr SelectResponse
	if code := c.do("POST", "/v1/sessions/w/select", QueryRequest{Query: "? win(X)."}, &sr); code != 200 {
		t.Fatalf("select: status %d", code)
	}
	if len(sr.Vars) != 1 || sr.Vars[0] != "X" {
		t.Errorf("select vars = %v", sr.Vars)
	}
	want := [][]string{{"b"}}
	if fmt.Sprint(sr.Tuples) != fmt.Sprint(want) {
		t.Errorf("select tuples = %v, want %v", sr.Tuples, want)
	}

	// Ground-atom truth: the a<->b cycle without escape would be
	// undefined, but b->c (win over the dead-end c... c has no move, so
	// win(b) true via c, win(a) false? a->b with win(b) true blocks;
	// a has only move a->b). Check all three.
	for atom, want := range map[string]string{
		"win(b)": "true",
		"win(c)": "false",
	} {
		var tr TruthResponse
		if code := c.do("POST", "/v1/sessions/w/truth", QueryRequest{Atom: atom}, &tr); code != 200 {
			t.Fatalf("truth %s: status %d", atom, code)
		}
		if tr.Truth != want {
			t.Errorf("truth of %s = %s, want %s", atom, tr.Truth, want)
		}
	}

	// Explain a true atom.
	var er ExplainResponse
	if code := c.do("POST", "/v1/sessions/w/explain", QueryRequest{Atom: "move(a,b)"}, &er); code != 200 {
		t.Fatalf("explain: status %d", code)
	}
	if !er.True || er.Proof == "" {
		t.Errorf("explain move(a,b): %+v, want a proof", er)
	}

	// Error paths.
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{}, nil); code != 400 {
		t.Errorf("missing query: status %d, want 400", code)
	}
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win("}, nil); code != 400 {
		t.Errorf("malformed query: status %d, want 400", code)
	}
	if code := c.do("POST", "/v1/sessions/w/truth", QueryRequest{Atom: "win(X)"}, nil); code != 400 {
		t.Errorf("non-ground truth atom: status %d, want 400", code)
	}
	if code := c.do("POST", "/v1/sessions/nope/query", QueryRequest{Query: "win(b)"}, nil); code != 404 {
		t.Errorf("unknown session: status %d, want 404", code)
	}
}

// TestReadAfterWrite: every read endpoint answers on the snapshot of the
// latest committed write, after an assertion and after a retraction.
func TestReadAfterWrite(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("s", authorship)

	// reads checks that /query, /select, /truth and /explain agree on
	// whether article(p1) holds.
	reads := func(stage string, holds bool) {
		t.Helper()
		want, articles := "false", 1
		if holds {
			want, articles = "true", 2
		}
		var q QueryResponse
		if c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "article(p1)"}, &q); q.Answer != want {
			t.Errorf("%s: query article(p1) = %s, want %s", stage, q.Answer, want)
		}
		var sr SelectResponse
		if c.do("POST", "/v1/sessions/s/select", QueryRequest{Query: "article(X)"}, &sr); len(sr.Tuples) != articles {
			t.Errorf("%s: select article(X) = %v, want %d tuples", stage, sr.Tuples, articles)
		}
		var tr TruthResponse
		if c.do("POST", "/v1/sessions/s/truth", QueryRequest{Atom: "article(p1)"}, &tr); tr.Truth != want {
			t.Errorf("%s: truth of article(p1) = %s, want %s", stage, tr.Truth, want)
		}
		var er ExplainResponse
		if c.do("POST", "/v1/sessions/s/explain", QueryRequest{Atom: "article(p1)"}, &er); er.True != holds || (er.Proof != "") != holds {
			t.Errorf("%s: explain article(p1) = %+v, want true=%v", stage, er, holds)
		}
	}
	reads("before any write", false)

	// Whitespace/punctuation variants normalize to the same query.
	var q1, q2 QueryResponse
	c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "article(p1)"}, &q1)
	c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "  article( p1 ) ."}, &q2)
	if q2.Query != q1.Query || q2.Answer != q1.Answer {
		t.Errorf("variant %+v differs from %+v", q2, q1)
	}

	// Adding a fact bumps the epoch; the next reads see it.
	var fr AddFactsResponse
	if code := c.do("POST", "/v1/sessions/s/facts", AddFactsRequest{Facts: []Fact{{Pred: "conferencePaper", Args: []string{"p1"}}}}, &fr); code != 200 {
		t.Fatalf("add facts: status %d", code)
	}
	if fr.Added != 1 || fr.Epoch == 0 {
		t.Errorf("add facts response: %+v", fr)
	}
	reads("after /facts", true)

	// Retracting it bumps the epoch again; the next reads see that too.
	var rr RetractResponse
	if code := c.do("POST", "/v1/sessions/s/retract", AddFactsRequest{Facts: []Fact{{Pred: "conferencePaper", Args: []string{"p1"}}}}, &rr); code != 200 {
		t.Fatalf("retract: status %d", code)
	}
	if rr.Retracted != 1 || rr.Epoch <= fr.Epoch {
		t.Errorf("retract response: %+v after %+v", rr, fr)
	}
	reads("after /retract", false)

	var ss ServerStatsResponse
	c.do("GET", "/v1/stats", nil, &ss)
	if ss.Sessions != 1 {
		t.Errorf("server stats sessions = %d, want 1", ss.Sessions)
	}

	// Arity mismatch on a later fact of a batch is a 400.
	if code := c.do("POST", "/v1/sessions/s/facts", AddFactsRequest{Facts: []Fact{
		{Pred: "scientist", Args: []string{"ada"}},
		{Pred: "scientist", Args: []string{"too", "many"}},
	}}, nil); code != 400 {
		t.Errorf("arity mismatch batch: status %d, want 400", code)
	}
}

// TestRecreatedSessionStartsFresh: a session deleted and recreated under
// the same name (its epoch restarts at zero) answers from its own
// program, never from the earlier incarnation's.
func TestRecreatedSessionStartsFresh(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("s", "p(a).")
	var q1 QueryResponse
	c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "p(a)"}, &q1)
	if q1.Answer != "true" {
		t.Fatalf("p(a) = %s, want true", q1.Answer)
	}
	if code := c.do("DELETE", "/v1/sessions/s", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	// Recreate under the same name with a program where p(a) is false.
	c.mustCreate("s", "q(b).")
	var q2 QueryResponse
	c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "p(a)"}, &q2)
	if q2.Answer != "false" {
		t.Errorf("p(a) in recreated session = %s, want false", q2.Answer)
	}
}

// TestQueryStampedeBuildsOnce: concurrent identical first queries on a
// fresh session all answer, and the session builds its model exactly
// once — the snapshot builds each model under its own lock, and callers
// that arrive mid-build wait for that build and reuse it. A move chain
// behind winMove makes the build take milliseconds, so the requests
// really do arrive mid-build.
func TestQueryStampedeBuildsOnce(t *testing.T) {
	c := newTestClient(t, Config{})
	var prog strings.Builder
	prog.WriteString(winMove)
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&prog, "move(n%d,n%d). ", i, i+1)
	}
	c.mustCreate("s", prog.String())

	const n = 12
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var resp QueryResponse
			if code := c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "win(b)"}, &resp); code != http.StatusOK {
				t.Errorf("query status %d", code)
			} else if resp.Answer != "true" {
				t.Errorf("answer = %q, want true", resp.Answer)
			}
		}()
	}
	close(start)
	wg.Wait()

	var st SessionStatsResponse
	if code := c.do("GET", "/v1/sessions/s/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("session stats: status %d", code)
	}
	if st.Engine.Builds != 1 {
		t.Errorf("engine builds = %d after %d concurrent first queries, want 1", st.Engine.Builds, n)
	}
}

func TestSessionStats(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("s", authorship)
	// Force evaluation through a query first.
	c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "isAuthorOf(john, X)"}, nil)

	var st SessionStatsResponse
	if code := c.do("GET", "/v1/sessions/s/stats", nil, &st); code != 200 {
		t.Fatalf("session stats: status %d", code)
	}
	if st.Name != "s" || st.Facts != 2 {
		t.Errorf("stats identity: %+v", st)
	}
	if !st.Stratified {
		t.Errorf("authorship program should be stratified")
	}
	if st.DeltaBound == "" || st.DeltaBits == 0 {
		t.Errorf("δ bound missing: %+v", st)
	}
	if st.Model.ChaseAtoms == 0 || st.Model.TrueAtoms == 0 {
		t.Errorf("model stats empty: %+v", st.Model)
	}
	if st.Model.MaxDepthReached <= 0 {
		t.Errorf("depth reached = %d, want > 0 (existential rule fires)", st.Model.MaxDepthReached)
	}
}

func TestSessionOptions(t *testing.T) {
	c := newTestClient(t, Config{})
	req := CreateSessionRequest{
		Name:    "r",
		Program: winMove,
		// NoCertify: win-move certifies at depth 1, which would clamp the
		// explicit Depth below; this test checks option passthrough.
		Options: &SessionOptions{Depth: 4, NoCertify: true},
	}
	if code := c.do("POST", "/v1/sessions", req, nil); code != 201 {
		t.Fatalf("create with options: status %d", code)
	}
	var st SessionStatsResponse
	c.do("GET", "/v1/sessions/r/stats", nil, &st)
	if st.Model.Depth != 4 {
		t.Errorf("depth = %d, want 4", st.Model.Depth)
	}

	// The retired WFS-algorithm knob is an unknown field now: a client
	// still sending it gets a structured 400 naming the field, never a
	// silently ignored option.
	for _, alg := range []string{"remainder", "alternating-fixpoint"} {
		body := json.RawMessage(`{"name":"old","program":"p(a).","options":{"algorithm":"` + alg + `"}}`)
		var er ErrorResponse
		if code := c.do("POST", "/v1/sessions", body, &er); code != http.StatusBadRequest {
			t.Errorf("options.algorithm=%s: status %d, want 400", alg, code)
		}
		if !strings.Contains(er.Error, `unknown field "algorithm"`) {
			t.Errorf("options.algorithm=%s: error %q does not name the field", alg, er.Error)
		}
	}
	if code := c.do("GET", "/v1/sessions/old", nil, nil); code != http.StatusNotFound {
		t.Errorf("rejected create left a session behind: status %d", code)
	}
}

// TestConcurrentClients is the acceptance scenario: ≥8 goroutines hammer
// one session with a mix of NBCQ answering, Select, truth lookups and
// occasional fact writes, under -race via CI.
func TestConcurrentClients(t *testing.T) {
	c := newTestClient(t, Config{MaxConcurrent: 16})
	c.mustCreate("w", winMove)

	const goroutines = 12
	const iters = 15
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case g == 0 && i%5 == 4:
					// One writer thread occasionally asserts a new edge.
					var fr AddFactsResponse
					code := c.do("POST", "/v1/sessions/w/facts", AddFactsRequest{
						Facts: []Fact{{Pred: "move", Args: []string{fmt.Sprintf("n%d", i), "c"}}},
					}, &fr)
					if code != 200 {
						errs <- fmt.Errorf("goroutine %d: add fact status %d", g, code)
					}
				case g%3 == 1:
					var sr SelectResponse
					code := c.do("POST", "/v1/sessions/w/select", QueryRequest{Query: "win(X)"}, &sr)
					if code != 200 {
						errs <- fmt.Errorf("goroutine %d: select status %d", g, code)
					} else if len(sr.Vars) != 1 {
						errs <- fmt.Errorf("goroutine %d: select vars %v", g, sr.Vars)
					}
				case g%3 == 2:
					var tr TruthResponse
					code := c.do("POST", "/v1/sessions/w/truth", QueryRequest{Atom: "win(c)"}, &tr)
					if code != 200 {
						errs <- fmt.Errorf("goroutine %d: truth status %d", g, code)
					}
				default:
					var qr QueryResponse
					code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "win(b)"}, &qr)
					if code != 200 {
						errs <- fmt.Errorf("goroutine %d: query status %d", g, code)
					} else if qr.Answer != "true" {
						// win(b) stays true under every added n*->c edge.
						errs <- fmt.Errorf("goroutine %d: win(b) = %s", g, qr.Answer)
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
}

func TestRequestLimits(t *testing.T) {
	c := newTestClient(t, Config{MaxBodyBytes: 256})
	big := strings.Repeat("p(a). ", 200)
	code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "big", Program: big}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", code)
	}
	// Unknown JSON fields are rejected, catching typo'd option keys.
	req, _ := http.NewRequest("POST", c.srv.URL+"/v1/sessions",
		strings.NewReader(`{"name":"x","programme":"p(a)."}`))
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	c := newTestClient(t, Config{})
	var out map[string]string
	if code := c.do("GET", "/v1/healthz", nil, &out); code != 200 || out["status"] != "ok" {
		t.Errorf("healthz: code %d body %v", code, out)
	}
}

// TestAddFactsAtomicBatch: a batch with one invalid fact applies nothing
// — database size and epoch are unchanged, and reads still see the old state.
func TestAddFactsAtomicBatch(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("s", "move(a,b). move(b,a). move(b,c).\nmove(X,Y), not win(Y) -> win(X).")
	var before SessionInfo
	c.do("GET", "/v1/sessions/s", nil, &before)

	if code := c.do("POST", "/v1/sessions/s/facts", AddFactsRequest{Facts: []Fact{
		{Pred: "move", Args: []string{"c", "d"}},
		{Pred: "move", Args: []string{"wrong-arity"}},
	}}, nil); code != 400 {
		t.Fatalf("invalid batch: status %d, want 400", code)
	}
	var after SessionInfo
	c.do("GET", "/v1/sessions/s", nil, &after)
	if after.Facts != before.Facts || after.Epoch != before.Epoch {
		t.Errorf("failed batch mutated session: before %+v after %+v", before, after)
	}
	// win(c) must still be false: move(c,d) did not land.
	var q QueryResponse
	c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "win(c)"}, &q)
	if q.Answer != "false" {
		t.Errorf("win(c) = %s, want false after rejected batch", q.Answer)
	}
}

// TestRetractEndpoint drives the retraction round-trip over HTTP,
// including the all-or-nothing failure mode.
func TestRetractEndpoint(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("s", "move(a,b). move(b,a). move(b,c).\nmove(X,Y), not win(Y) -> win(X).")

	var q QueryResponse
	c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "win(b)"}, &q)
	if q.Answer != "true" {
		t.Fatalf("win(b) = %s, want true", q.Answer)
	}

	var rr RetractResponse
	if code := c.do("POST", "/v1/sessions/s/retract", AddFactsRequest{Facts: []Fact{
		{Pred: "move", Args: []string{"b", "c"}},
	}}, &rr); code != 200 {
		t.Fatalf("retract: status %d", code)
	}
	if rr.Retracted != 1 || rr.Facts != 2 || rr.Epoch == 0 {
		t.Errorf("retract response: %+v", rr)
	}
	c.do("POST", "/v1/sessions/s/query", QueryRequest{Query: "win(b)"}, &q)
	if q.Answer != "undefined" {
		t.Errorf("win(b) after retraction = %s, want undefined (a↔b draw)", q.Answer)
	}

	// Retracting a non-database fact rejects the whole batch.
	if code := c.do("POST", "/v1/sessions/s/retract", AddFactsRequest{Facts: []Fact{
		{Pred: "move", Args: []string{"a", "b"}},
		{Pred: "move", Args: []string{"z", "z"}},
	}}, nil); code != 400 {
		t.Fatalf("invalid retract batch: status %d, want 400", code)
	}
	var info SessionInfo
	c.do("GET", "/v1/sessions/s", nil, &info)
	if info.Facts != 2 {
		t.Errorf("facts = %d, want 2 (failed retract must not apply)", info.Facts)
	}
	// Empty and unknown-session requests.
	if code := c.do("POST", "/v1/sessions/s/retract", AddFactsRequest{}, nil); code != 400 {
		t.Errorf("empty retract: status %d, want 400", code)
	}
	if code := c.do("POST", "/v1/sessions/nope/retract", AddFactsRequest{Facts: []Fact{
		{Pred: "p", Args: []string{"a"}},
	}}, nil); code != 404 {
		t.Errorf("unknown session retract: status %d, want 404", code)
	}
}

// TestCreateRejectsAnalysisErrors: a program whose rule references a
// predicate with no facts and no derivation compiles, but analysis flags
// it as an Error — creation must 400 with the structured diagnostics,
// and no session may be left behind.
func TestCreateRejectsAnalysisErrors(t *testing.T) {
	c := newTestClient(t, Config{})
	broken := `
		scientist(john).
		conferencePaper(X) -> article(X).
	`
	var er ErrorResponse
	code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "b", Program: broken}, &er)
	if code != http.StatusBadRequest {
		t.Fatalf("create: status %d, want 400", code)
	}
	if len(er.Diagnostics) == 0 {
		t.Fatalf("400 body carries no diagnostics: %+v", er)
	}
	found := false
	for _, d := range er.Diagnostics {
		if d.Code == "unsatisfiable-rule" && strings.Contains(d.Message, "conferencePaper") {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostics lack the unsatisfiable-rule finding: %+v", er.Diagnostics)
	}
	if !strings.Contains(er.Error, "error diagnostic") {
		t.Errorf("error message not descriptive: %q", er.Error)
	}
	// The rejected name is free for reuse.
	if code := c.do("GET", "/v1/sessions/b", nil, nil); code != http.StatusNotFound {
		t.Errorf("rejected session visible: status %d", code)
	}
	c.mustCreate("b", winMove)
}

// TestCreateReturnsAnalysisSummary: a healthy program's 201 carries the
// analysis block (classes, certificate, counts), and warnings ride along
// without failing the create.
func TestCreateReturnsAnalysisSummary(t *testing.T) {
	c := newTestClient(t, Config{})

	var resp CreateSessionResponse
	code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "w", Program: winMove}, &resp)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	a := resp.Analysis
	if a == nil {
		t.Fatal("201 body lacks analysis block")
	}
	if a.CertifiedDepth != 1 || !a.Terminates {
		t.Errorf("win-move should certify at depth 1: %+v", a)
	}
	if a.Errors != 0 || len(a.Diagnostics) != 0 {
		t.Errorf("unexpected diagnostics: %+v", a)
	}

	// vacuous negation: warning in the body, create still succeeds.
	warny := `
		a(1).
		a(X), not ghost(X) -> b(X).
	`
	var wr CreateSessionResponse
	if code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "v", Program: warny}, &wr); code != http.StatusCreated {
		t.Fatalf("warning program rejected: status %d", code)
	}
	if wr.Analysis == nil || wr.Analysis.Warnings != 1 || len(wr.Analysis.Diagnostics) != 1 {
		t.Fatalf("warnings missing from create body: %+v", wr.Analysis)
	}
	if wr.Analysis.Diagnostics[0].Code != "vacuous-negation" {
		t.Errorf("diagnostic = %+v", wr.Analysis.Diagnostics[0])
	}

	// The stats endpoint repeats the summary (without diagnostics).
	var st SessionStatsResponse
	c.do("GET", "/v1/sessions/w/stats", nil, &st)
	if st.Analysis == nil || st.Analysis.CertifiedDepth != 1 {
		t.Errorf("stats analysis block = %+v", st.Analysis)
	}
	if len(st.Analysis.Diagnostics) != 0 {
		t.Errorf("stats should summarize, not list diagnostics: %+v", st.Analysis)
	}
}
