package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// endlessChain is a non-terminating guarded program: the existential
// cycle p→s→p chases an unbounded chain, and the win-style negation
// gives w(a) an answer that flips with the chain's parity — the
// adaptive ladder never meets its stability window and climbs until
// something (deadline, budget, MaxDepth) stops it. The resource-
// governance tests run queries over it so that only the mechanism under
// test can end the evaluation.
const endlessChain = `
	p(a).
	p(X) -> s(X,Y).
	s(X,Y) -> p(Y).
	s(X,Y), not w(Y) -> w(X).
`

// endlessOptions keeps the heuristic ladder climbing far past the
// default depth ceiling, one rung at a time. The ceiling is chosen
// unreachable within any deadline these tests use (each rung costs
// ~0.5ms on this program) but small enough that materializing the
// snapshot's rung table stays well under the deadline.
func endlessOptions() *SessionOptions {
	return &SessionOptions{MaxDepth: 1 << 16, AdaptiveStep: 1, NoCertify: true}
}

// rawGet fetches a non-JSON endpoint (e.g. /metrics) as text.
func (c *testClient) rawGet(path string) (int, string) {
	c.t.Helper()
	resp, err := c.srv.Client().Get(c.srv.URL + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

func metricValue(t *testing.T, body, name string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("metric %s not found in /metrics output", name)
	return ""
}

// TestQueryDeadline504: a query that cannot finish inside the
// server-side deadline fails 504 with the structured error body, and
// the timeout is counted in /v1/stats and /metrics.
func TestQueryDeadline504(t *testing.T) {
	c := newTestClient(t, Config{QueryTimeout: 20 * time.Millisecond})
	code := c.do("POST", "/v1/sessions",
		CreateSessionRequest{Name: "e", Program: endlessChain, Options: endlessOptions()}, nil)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var errResp ErrorResponse
	if code := c.do("POST", "/v1/sessions/e/query", QueryRequest{Query: "? w(a)."}, &errResp); code != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: status %d, want 504", code)
	}
	if !strings.Contains(errResp.Error, "deadline") {
		t.Errorf("error body %q does not mention the deadline", errResp.Error)
	}
	if errResp.TraceID == "" {
		t.Errorf("504 body carries no trace_id")
	}

	var stats ServerStatsResponse
	if code := c.do("GET", "/v1/stats", nil, &stats); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if stats.QueryTimeouts != 1 {
		t.Errorf("query_timeouts = %d, want 1", stats.QueryTimeouts)
	}
	if stats.QueryTimeoutMS != 20 {
		t.Errorf("query_timeout_ms = %d, want 20", stats.QueryTimeoutMS)
	}
	if _, body := c.rawGet("/metrics"); metricValue(t, body, "wfsd_query_timeouts_total") != "1" {
		t.Errorf("wfsd_query_timeouts_total = %s, want 1", metricValue(t, body, "wfsd_query_timeouts_total"))
	}
}

// TestPartialDegradedAnswer: the same doomed query under ?partial=1
// degrades to the deepest completed rung's answer — 200, partial=true,
// exact=false, at least one completed depth — and a repeat without
// ?partial=1 still runs and still times out.
func TestPartialDegradedAnswer(t *testing.T) {
	c := newTestClient(t, Config{QueryTimeout: 100 * time.Millisecond})
	code := c.do("POST", "/v1/sessions",
		CreateSessionRequest{Name: "e", Program: endlessChain, Options: endlessOptions()}, nil)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	var resp QueryResponse
	if code := c.do("POST", "/v1/sessions/e/query?partial=1", QueryRequest{Query: "? w(a)."}, &resp); code != http.StatusOK {
		t.Fatalf("partial query: status %d, want 200", code)
	}
	if !resp.Partial {
		t.Errorf("partial flag not set: %+v", resp)
	}
	if resp.Stats == nil || resp.Stats.Exact {
		t.Errorf("degraded answer must carry inexact stats, got %+v", resp.Stats)
	}
	if resp.Stats != nil && len(resp.Stats.Depths) == 0 {
		t.Errorf("degraded answer reports no completed rungs")
	}
	if resp.Answer != "true" && resp.Answer != "false" && resp.Answer != "undefined" {
		t.Errorf("degraded answer = %q", resp.Answer)
	}

	// The exact same query without ?partial=1 evaluates again and blows
	// the deadline.
	if code := c.do("POST", "/v1/sessions/e/query", QueryRequest{Query: "? w(a)."}, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("repeat without partial: status %d, want 504", code)
	}

	// A query that finishes inside the deadline behaves identically with
	// or without ?partial=1: exact answer, no partial flag.
	c.mustCreate("w", winMove)
	var exact QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query?partial=1", QueryRequest{Query: "? win(a)."}, &exact); code != http.StatusOK {
		t.Fatalf("fast partial query: status %d", code)
	}
	if exact.Partial || exact.Stats == nil || !exact.Stats.Exact {
		t.Errorf("in-time partial query: %+v, want exact non-partial", exact)
	}
}

// TestSelectDeadline504: /select runs under the query deadline like
// /query. A model build that outlives it is cancelled and answered 504,
// its limiter slot is freed, no goroutine is left behind, and selects on
// a small session keep succeeding.
func TestSelectDeadline504(t *testing.T) {
	c := newTestClient(t, Config{QueryTimeout: 100 * time.Millisecond})
	opts := endlessOptions()
	// The selected model sits ~1600 one-level rungs up the ladder, whose
	// build cost grows quadratically with depth: far past the deadline,
	// yet small enough in memory to finish should cancellation break.
	opts.Depth = 1600
	code := c.do("POST", "/v1/sessions",
		CreateSessionRequest{Name: "e", Program: endlessChain, Options: opts}, nil)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	c.mustCreate("w", winMove)
	baseline := runtime.NumGoroutine()

	var errResp ErrorResponse
	if code := c.do("POST", "/v1/sessions/e/select", QueryRequest{Query: "? w(X)."}, &errResp); code != http.StatusGatewayTimeout {
		t.Fatalf("deadline select: status %d, want 504", code)
	}
	if !strings.Contains(errResp.Error, "deadline") {
		t.Errorf("error body %q does not mention the deadline", errResp.Error)
	}

	var sr SelectResponse
	if code := c.do("POST", "/v1/sessions/w/select", QueryRequest{Query: "? win(X)."}, &sr); code != http.StatusOK || len(sr.Tuples) != 1 {
		t.Fatalf("select on a small session: status %d tuples %v, want [[b]]", code, sr.Tuples)
	}

	var stats ServerStatsResponse
	if code := c.do("GET", "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.QueryTimeouts != 1 || stats.InFlight != 0 {
		t.Errorf("query_timeouts = %d, in_flight = %d, want 1 and 0", stats.QueryTimeouts, stats.InFlight)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+10 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, baseline %d — the cancelled build leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBudgetExceeded422: a query whose chase hits the configured
// MaxAtoms valve fails 422 with the structured budget block — the
// request was well-formed, but this program/limit combination cannot
// answer it exactly.
func TestBudgetExceeded422(t *testing.T) {
	c := newTestClient(t, Config{})
	opts := endlessOptions()
	opts.MaxAtoms = 40
	code := c.do("POST", "/v1/sessions",
		CreateSessionRequest{Name: "e", Program: endlessChain, Options: opts}, nil)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var errResp ErrorResponse
	if code := c.do("POST", "/v1/sessions/e/query", QueryRequest{Query: "? w(a)."}, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("budget query: status %d, want 422", code)
	}
	if errResp.Budget == nil {
		t.Fatalf("422 body carries no budget block: %+v", errResp)
	}
	if errResp.Budget.Limit != 40 {
		t.Errorf("budget limit = %d, want 40", errResp.Budget.Limit)
	}
	if errResp.Budget.Atoms <= 0 {
		t.Errorf("budget atoms = %d, want > 0", errResp.Budget.Atoms)
	}
	if !strings.Contains(errResp.Error, "budget") && !strings.Contains(errResp.Error, "atom") {
		t.Errorf("error body %q does not describe the budget", errResp.Error)
	}
}

// TestRetryAfterEstimate covers the limiter's drain-rate arithmetic:
// before any observation the configured queue bound is the only honest
// estimate; afterwards the EWMA of slot-hold times scales with queue
// depth and clamps to [1s, 60s].
func TestRetryAfterEstimate(t *testing.T) {
	l := newLimiter(2, 5*time.Second)
	if got := l.retryAfterSeconds(); got != 5 {
		t.Errorf("no samples: Retry-After %d, want 5 (= maxWait)", got)
	}

	l.observeHold(2 * time.Second) // first sample is stored directly
	if got := l.retryAfterSeconds(); got != 2 {
		t.Errorf("idle queue: Retry-After %d, want 2", got)
	}

	l.waiting.Store(5) // 5 waiters over 2 slots: 3 drain rounds
	if got := l.retryAfterSeconds(); got != 6 {
		t.Errorf("queued: Retry-After %d, want 6", got)
	}
	l.waiting.Store(0)

	// EWMA folds new samples at α=1/8: 2s + (10s-2s)/8 = 3s.
	l.observeHold(10 * time.Second)
	if got := time.Duration(l.holdNS.Load()); got != 3*time.Second {
		t.Errorf("EWMA after 10s sample = %v, want 3s", got)
	}

	l.holdNS.Store(int64(10 * time.Minute))
	if got := l.retryAfterSeconds(); got != 60 {
		t.Errorf("clamp: Retry-After %d, want 60", got)
	}
	l.holdNS.Store(int64(time.Millisecond))
	if got := l.retryAfterSeconds(); got != 1 {
		t.Errorf("floor: Retry-After %d, want 1", got)
	}
}

// TestOverloadRetryAfterAndDisconnect exercises the governance paths
// end to end under one saturated slot: a second request queues, times
// out after MaxQueueWait with 429 and a Retry-After header, and the
// slot-holding client's disconnect cooperatively cancels its evaluation
// (counted as a query cancel) instead of pinning the slot forever.
func TestOverloadRetryAfterAndDisconnect(t *testing.T) {
	c := newTestClient(t, Config{MaxConcurrent: 1, MaxQueueWait: 30 * time.Millisecond})
	code := c.do("POST", "/v1/sessions",
		CreateSessionRequest{Name: "e", Program: endlessChain, Options: endlessOptions()}, nil)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	// Occupy the only slot with a never-finishing evaluation we can
	// cancel by hanging up.
	ctx, cancel := context.WithCancel(context.Background())
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		req, err := http.NewRequestWithContext(ctx, "POST", c.srv.URL+"/v1/sessions/e/query",
			strings.NewReader(`{"query": "? w(a)."}`))
		if err != nil {
			t.Errorf("holder request: %v", err)
			return
		}
		resp, err := c.srv.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Errorf("holder: err = %v, want context.Canceled", err)
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the holder take the slot

	resp, err := c.srv.Client().Post(c.srv.URL+"/v1/sessions/e/query", "application/json",
		strings.NewReader(`{"query": "? w(a)."}`))
	if err != nil {
		t.Fatalf("queued request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("429 without Retry-After header")
	}

	// Hang up; the engine must notice within its next cancellation poll
	// and free the slot.
	cancel()
	select {
	case <-holderDone:
	case <-time.After(5 * time.Second):
		t.Fatal("disconnected evaluation did not unwind")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats ServerStatsResponse
		if code := c.do("GET", "/v1/stats", nil, &stats); code != 200 {
			t.Fatalf("stats: status %d", code)
		}
		if stats.QueryCancels >= 1 && stats.RejectedTimeout == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never settled: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flakyFS is a wal.FS whose file writes and syncs fail (ENOSPC-style)
// while the switch is on — the server-level analogue of the wal
// package's exhaustive fault sweep, here driving the read-only circuit
// breaker end to end over HTTP. Metadata operations (open, rename,
// remove, ...) stay healthy so the failure mode is precisely "the disk
// stopped accepting bytes".
type flakyFS struct{ fail atomic.Bool }

type flakyFile struct {
	f  wal.File
	fs *flakyFS
}

var errDiskFull = errors.New("injected: no space left on device")

func (fs *flakyFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{f: f, fs: fs}, nil
}

func (fs *flakyFS) Open(name string) (wal.File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{f: f, fs: fs}, nil
}

func (fs *flakyFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (fs *flakyFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (fs *flakyFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (fs *flakyFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (fs *flakyFS) Remove(name string) error                     { return os.Remove(name) }
func (fs *flakyFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (fs *flakyFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (fs *flakyFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.fs.fail.Load() {
		return 0, errDiskFull
	}
	return f.f.Write(p)
}

func (f *flakyFile) Sync() error {
	if f.fs.fail.Load() {
		return errDiskFull
	}
	return f.f.Sync()
}

func (f *flakyFile) Truncate(size int64) error { return f.f.Truncate(size) }
func (f *flakyFile) Close() error              { return f.f.Close() }

// TestWALBreakerTripAndHeal drives the read-only circuit breaker end to
// end: a disk that stops accepting writes fails mutations 503 and, after
// the configured run of consecutive failures, trips the session into
// read-only mode — further mutations are refused up front, reads keep
// serving, the wfsd_wal_readonly gauge shows 1 — until the background
// probe sees the disk heal and writes flow again.
func TestWALBreakerTripAndHeal(t *testing.T) {
	dir := t.TempDir()
	fsys := &flakyFS{}
	s := New(Config{WALFailureThreshold: 2, WALProbeInterval: 5 * time.Millisecond})
	if _, err := s.OpenWAL(dir, wal.Options{FS: fsys}); err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	c := newTestClientFor(t, s)
	c.mustCreate("w", winMove)

	// Healthy disk: mutations commit and log.
	c.mustAddFact("w", "move", "c", "d")

	// Disk dies. Each append fails (503, append-failure message); the
	// second consecutive failure trips the breaker.
	fsys.fail.Store(true)
	mutate := func() (int, ErrorResponse) {
		var errResp ErrorResponse
		code := c.do("POST", "/v1/sessions/w/facts",
			AddFactsRequest{Facts: []Fact{{Pred: "move", Args: []string{"d", "e"}}}}, &errResp)
		return code, errResp
	}
	for i := 0; i < 2; i++ {
		code, errResp := mutate()
		if code != http.StatusServiceUnavailable {
			t.Fatalf("failing append %d: status %d, want 503", i, code)
		}
		if !strings.Contains(errResp.Error, "append failed") {
			t.Fatalf("failing append %d: %q, want append-failure message", i, errResp.Error)
		}
	}

	// Breaker open: mutations are refused without touching the disk,
	// reads still serve, and the gauge reports one read-only session.
	code, errResp := mutate()
	if code != http.StatusServiceUnavailable || !strings.Contains(errResp.Error, "read-only") {
		t.Fatalf("read-only mutation: status %d error %q, want 503 read-only", code, errResp.Error)
	}
	if got := c.mustTruth("w", "win(c)"); got != "true" {
		t.Errorf("read during read-only mode: win(c) = %s, want true", got)
	}
	var stats ServerStatsResponse
	if code := c.do("GET", "/v1/stats", nil, &stats); code != 200 || stats.WAL == nil || stats.WAL.ReadonlySessions != 1 {
		t.Fatalf("stats during outage: code %d wal %+v, want 1 read-only session", code, stats.WAL)
	}
	if _, body := c.rawGet("/metrics"); metricValue(t, body, "wfsd_wal_readonly") != "1" {
		t.Errorf("wfsd_wal_readonly = %s during outage, want 1", metricValue(t, body, "wfsd_wal_readonly"))
	}

	// Disk heals; the probe closes the breaker and mutations flow again.
	fsys.fail.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := mutate(); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never left read-only mode after the disk healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, body := c.rawGet("/metrics"); metricValue(t, body, "wfsd_wal_readonly") != "0" {
		t.Errorf("wfsd_wal_readonly = %s after heal, want 0", metricValue(t, body, "wfsd_wal_readonly"))
	}
	// Durability resumed for real: a fresh process over the same dir
	// recovers the committed mutations (not the refused ones).
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, _, st := newDurableClient(t, dir, wal.Options{})
	if st.Sessions != 1 {
		t.Fatalf("recovery after outage: %+v, want 1 session", st)
	}
}

// newTestClientFor wraps an already-configured Server (e.g. one whose
// WAL was opened with an injected filesystem) in a test HTTP client.
func newTestClientFor(t *testing.T, s *Server) *testClient {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testClient{t: t, srv: ts}
}
