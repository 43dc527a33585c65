package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/wal"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// doHdr issues a JSON request with extra headers and returns the response
// (body consumed into out when non-nil).
func (c *testClient) doHdr(method, path string, hdr map[string]string, body, out any) *http.Response {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatalf("new request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp
}

// TestTraceparentContinuation: a well-formed incoming traceparent is
// continued — same trace ID on the response headers, a fresh span ID —
// and the identity is stamped on the error body too.
func TestTraceparentContinuation(t *testing.T) {
	c := newTestClient(t, Config{})
	const upstream = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

	resp := c.doHdr("GET", "/v1/healthz", map[string]string{"traceparent": upstream}, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("X-Trace-Id = %q, want the upstream trace ID", got)
	}
	tp := resp.Header.Get("Traceparent")
	tc, ok := trace.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response Traceparent %q does not parse", tp)
	}
	if tc.TraceIDString() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("response trace ID = %s, want continuation", tc.TraceIDString())
	}
	if tc.SpanIDString() == "00f067aa0ba902b7" {
		t.Errorf("response span ID equals the upstream span ID; want a fresh one")
	}
}

// TestMalformedTraceparentNever500: malformed headers mint a fresh
// identity and the request succeeds — a bad header is never an error.
func TestMalformedTraceparentNever500(t *testing.T) {
	c := newTestClient(t, Config{})
	for _, h := range []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
	} {
		resp := c.doHdr("GET", "/v1/healthz", map[string]string{"traceparent": h}, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("traceparent %q: status %d, want 200", h, resp.StatusCode)
		}
		id := resp.Header.Get("X-Trace-Id")
		if !hexTraceID.MatchString(id) || id == "00000000000000000000000000000000" {
			t.Errorf("traceparent %q: fresh trace ID %q invalid", h, id)
		}
		if id == "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("traceparent %q: malformed header was continued", h)
		}
	}
}

// TestErrorBodyCarriesTraceID: the uniform error body cites the same
// trace_id the response headers carry.
func TestErrorBodyCarriesTraceID(t *testing.T) {
	c := newTestClient(t, Config{})
	var er ErrorResponse
	resp := c.doHdr("GET", "/v1/sessions/nope", nil, nil, &er)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if er.TraceID == "" || er.TraceID != resp.Header.Get("X-Trace-Id") {
		t.Errorf("error body trace_id %q != header %q", er.TraceID, resp.Header.Get("X-Trace-Id"))
	}
}

// TestTraceRecorderEndpoints: a ?trace=1 query is pinned in the flight
// recorder; the index lists it and /v1/traces/{id} returns the full
// span tree with the detailed evaluation under the request root.
func TestTraceRecorderEndpoints(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("w", winMove)

	var qr QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query?trace=1", QueryRequest{Query: "? win(b)."}, &qr); code != 200 {
		t.Fatalf("traced query: status %d", code)
	}
	if qr.Trace == nil {
		t.Fatal("traced query returned no trace")
	}
	if !hexTraceID.MatchString(qr.TraceID) {
		t.Fatalf("traced query trace_id %q invalid", qr.TraceID)
	}

	var idx TraceIndexResponse
	if code := c.do("GET", "/v1/traces", nil, &idx); code != 200 {
		t.Fatalf("trace index: status %d", code)
	}
	if idx.Capacity == 0 || idx.Entries == 0 {
		t.Fatalf("trace index = %+v, want non-empty recorder", idx)
	}
	found := false
	for _, s := range idx.Traces {
		if s.TraceID == qr.TraceID {
			found = true
			if s.Kept != trace.KeptPinned {
				t.Errorf("traced query kept=%q, want %q", s.Kept, trace.KeptPinned)
			}
			if s.Session != "w" {
				t.Errorf("traced query session=%q, want w", s.Session)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in index %+v", qr.TraceID, idx.Traces)
	}

	var rt trace.RequestTrace
	if code := c.do("GET", "/v1/traces/"+qr.TraceID, nil, &rt); code != 200 {
		t.Fatalf("trace get: status %d", code)
	}
	if rt.Trace == nil || rt.Trace.Find("query") == nil {
		t.Errorf("recorded trace has no query span: %+v", rt.Trace)
	}
	if code := c.do("GET", "/v1/traces/ffffffffffffffffffffffffffffffff", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
}

// TestTraceEndpointsDisabled: TraceBufferSize < 0 turns the recorder
// off — /v1/traces 404s, but trace identities and ?trace=1 keep working.
func TestTraceEndpointsDisabled(t *testing.T) {
	c := newTestClient(t, Config{TraceBufferSize: -1})
	c.mustCreate("w", winMove)
	if code := c.do("GET", "/v1/traces", nil, nil); code != http.StatusNotFound {
		t.Errorf("trace index with recorder disabled: status %d, want 404", code)
	}
	var qr QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query?trace=1", QueryRequest{Query: "? win(b)."}, &qr); code != 200 || qr.Trace == nil {
		t.Errorf("?trace=1 with recorder disabled: status %d trace %v, want inline trace", code, qr.Trace)
	}
	resp := c.doHdr("GET", "/v1/healthz", nil, nil, nil)
	if id := resp.Header.Get("X-Trace-Id"); !hexTraceID.MatchString(id) {
		t.Errorf("trace identity missing with recorder disabled: %q", id)
	}
}

// TestRetractionTraceCountsDRed: a retraction's delta-rebase span
// reports what DRed did beside the instances that died — the atoms it
// overdeleted and rederived, and whether it compacted the arena.
func TestRetractionTraceCountsDRed(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := &testClient{t: t, srv: ts}
	c.mustCreate("w", winMove)
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "? win(b)."}, nil); code != 200 {
		t.Fatalf("warm query: status %d", code)
	}
	const upstream = "00-5bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	resp := c.doHdr("POST", "/v1/sessions/w/retract", map[string]string{"traceparent": upstream},
		AddFactsRequest{Facts: []Fact{{Pred: "move", Args: []string{"b", "c"}}}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retraction: status %d", resp.StatusCode)
	}
	var rt trace.RequestTrace
	if code := c.do("GET", "/v1/traces/5bf92f3577b34da6a3ce929d0e0e4736", nil, &rt); code != 200 || rt.Trace == nil {
		t.Fatalf("trace get: status %d", code)
	}
	rb := rt.Trace.Find("delta-rebase")
	if rb == nil {
		t.Fatalf("no delta-rebase span:\n%s", rt.Trace.Format())
	}
	// move(b,c) and win(b) go; win(b) comes back through move(b,a). The
	// dead fact and instance are most of this small arena: it compacts.
	want := map[string]int64{"removed_facts": 1, "dead_instances": 1,
		"overdeleted_atoms": 2, "rederived_atoms": 1, "compacted": 1}
	for k, v := range want {
		if got, ok := rb.Counters[k]; !ok || got != v {
			t.Errorf("delta-rebase %s = %d (present %v), want %d:\n%s", k, got, ok, v, rt.Trace.Format())
		}
	}
}

// TestMutationTraceStitchesWALAndRebase is the acceptance flow: a
// mutation request against a durable server yields, via
// GET /v1/traces/{id}, one stitched span tree containing the WAL
// append/fsync and the delta-rebase, under the trace ID the caller
// chose — and the access-log line carries the same trace_id.
func TestMutationTraceStitchesWALAndRebase(t *testing.T) {
	buf := &syncBuf{}
	s := New(Config{AccessLogger: log.New(buf, "", 0)})
	if _, err := s.OpenWAL(t.TempDir(), wal.Options{Fsync: true}); err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := &testClient{t: t, srv: ts}

	c.mustCreate("w", winMove)
	// Materialize the base evaluation so the mutation has rebase sources.
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "? win(b)."}, nil); code != 200 {
		t.Fatalf("warm query: status %d", code)
	}

	const upstream = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const wantID = "4bf92f3577b34da6a3ce929d0e0e4736"
	resp := c.doHdr("POST", "/v1/sessions/w/facts", map[string]string{"traceparent": upstream},
		AddFactsRequest{Facts: []Fact{{Pred: "move", Args: []string{"c", "d"}}}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != wantID {
		t.Fatalf("mutation trace ID %q, want %q", got, wantID)
	}

	var rt trace.RequestTrace
	if code := c.do("GET", "/v1/traces/"+wantID, nil, &rt); code != 200 {
		t.Fatalf("trace get: status %d", code)
	}
	if rt.Trace == nil {
		t.Fatal("mutation trace has no span tree")
	}
	for _, span := range []string{"apply", "wal-append", "wal-fsync", "delta-rebase"} {
		if rt.Trace.Find(span) == nil {
			t.Errorf("mutation trace missing %q span:\n%s", span, rt.Trace.Format())
		}
	}
	// The WAL spans and the rebase must sit under the mutation's apply,
	// not float free: log-then-commit timing next to the rebase the writer
	// does before publishing is the point.
	if ap := rt.Trace.Find("apply"); ap == nil || ap.Find("wal-append") == nil || ap.Find("delta-rebase") == nil {
		t.Errorf("wal-append or delta-rebase not nested under apply:\n%s", rt.Trace.Format())
	}

	got := waitContains(t, buf, "trace_id="+wantID)
	line := ""
	for _, l := range strings.Split(got, "\n") {
		if strings.Contains(l, "trace_id="+wantID) {
			line = l
		}
	}
	if !strings.Contains(line, "/v1/sessions/{name}/facts") || !strings.Contains(line, `session="w"`) {
		t.Errorf("access-log line %q lacks route/session", line)
	}

	// The startup-recovery trace of a later process is pinned too.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestStartupRecoveryTracePinned: recovering a durable directory at
// startup records a pinned internal trace with the replay span tree.
func TestStartupRecoveryTracePinned(t *testing.T) {
	dir := t.TempDir()
	c1, _, _ := newDurableClient(t, dir, wal.Options{})
	c1.mustCreate("w", winMove)
	c1.mustAddFact("w", "move", "c", "d") // leave a record to replay

	c2, s2, st := newDurableClient(t, dir, wal.Options{})
	if st.Sessions != 1 {
		t.Fatalf("recovered %d sessions, want 1", st.Sessions)
	}
	defer s2.Close()
	var idx TraceIndexResponse
	if code := c2.do("GET", "/v1/traces", nil, &idx); code != 200 {
		t.Fatalf("trace index: status %d", code)
	}
	var rec *TraceSummary
	for i := range idx.Traces {
		if idx.Traces[i].Route == "internal/startup-recovery" {
			rec = &idx.Traces[i]
		}
	}
	if rec == nil {
		t.Fatalf("no startup-recovery trace in %+v", idx.Traces)
	}
	if rec.Kept != trace.KeptPinned {
		t.Errorf("startup-recovery kept=%q, want pinned", rec.Kept)
	}
	var rt trace.RequestTrace
	if code := c2.do("GET", "/v1/traces/"+rec.TraceID, nil, &rt); code != 200 {
		t.Fatalf("trace get: status %d", code)
	}
	if rt.Trace == nil || rt.Trace.Find("recover-session") == nil || rt.Trace.Find("replay") == nil {
		t.Errorf("recovery trace missing recover-session/replay spans:\n%s", rt.Trace.Format())
	}
	// Restore parses the source and compiles it with the checkpoint's
	// three facts (the added move(c,d) is the replayed record).
	restore := rt.Trace.Find("restore")
	if restore == nil || restore.Find("parse") == nil || restore.Find("compile") == nil {
		t.Errorf("restore span lacks parse/compile children:\n%s", rt.Trace.Format())
	} else if n := restore.Find("compile").Counters["facts"]; n != 3 {
		t.Errorf("compile facts=%d, want 3", n)
	}
}

// TestSlowQueryTraceRetained: a slow-query breach is logged with its
// trace_id and the trace survives in the recorder as slow-class.
func TestSlowQueryTraceRetained(t *testing.T) {
	buf := &syncBuf{}
	c := newTestClient(t, Config{
		SlowQueryThreshold: 1, // nanosecond: every query breaches
		Logger:             log.New(buf, "", 0),
	})
	c.mustCreate("w", winMove)
	if code := c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "? win(b)."}, nil); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	got := waitContains(t, buf, "slow-query trace_id=")
	m := regexp.MustCompile(`slow-query trace_id=([0-9a-f]{32})`).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("slow-query line has no trace_id: %q", got)
	}
	var rt trace.RequestTrace
	if code := c.do("GET", "/v1/traces/"+m[1], nil, &rt); code != 200 {
		t.Fatalf("slow trace %s not retrievable: status %d", m[1], code)
	}
	if rt.Kept != trace.KeptSlow {
		t.Errorf("slow query kept=%q, want slow", rt.Kept)
	}
	if rt.Trace == nil || rt.Trace.Find("query") == nil {
		t.Errorf("slow trace has no query span:\n%s", rt.Trace.Format())
	}
}

// promNameRE matches metric and label identifiers.
var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// parsePromLine validates one sample line of the text exposition format
// 0.0.4: name, optional {label="value",...} with escape handling, and a
// float value (possibly +Inf/NaN). Returns the metric name.
func parsePromLine(t *testing.T, line string) string {
	t.Helper()
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("sample line %q has no value", line)
	}
	name := line[:i]
	if !promNameRE.MatchString(name) {
		t.Fatalf("invalid metric name %q in %q", name, line)
	}
	rest := line[i:]
	if rest[0] == '{' {
		// Scan label pairs respecting quoted values (which may contain
		// '{', '}', and escaped quotes — route labels do).
		j := 1
		for {
			k := j
			for k < len(rest) && rest[k] != '=' {
				k++
			}
			if k >= len(rest) || !promNameRE.MatchString(rest[j:k]) {
				t.Fatalf("bad label name in %q", line)
			}
			if k+1 >= len(rest) || rest[k+1] != '"' {
				t.Fatalf("unquoted label value in %q", line)
			}
			j = k + 2
			for j < len(rest) && rest[j] != '"' {
				if rest[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(rest) {
				t.Fatalf("unterminated label value in %q", line)
			}
			j++
			if j < len(rest) && rest[j] == ',' {
				j++
				continue
			}
			break
		}
		if j >= len(rest) || rest[j] != '}' {
			t.Fatalf("unterminated label set in %q", line)
		}
		rest = rest[j+1:]
	}
	if len(rest) == 0 || rest[0] != ' ' {
		t.Fatalf("no space before value in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		t.Fatalf("sample line %q has %d value fields, want value [timestamp]", line, len(fields))
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		t.Fatalf("sample line %q: value %q: %v", line, fields[0], err)
	}
	return name
}

// TestMetricsPrometheusFormat drives traffic (so per-route, WAL, trace,
// session, and runtime families all emit) and then validates every line
// of GET /metrics as Prometheus text exposition format 0.0.4.
func TestMetricsPrometheusFormat(t *testing.T) {
	buf := &syncBuf{}
	s := New(Config{Logger: log.New(buf, "", 0)})
	if _, err := s.OpenWAL(t.TempDir(), wal.Options{}); err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	defer s.Close()
	c := &testClient{t: t, srv: ts}
	c.mustCreate("w", winMove)
	c.do("POST", "/v1/sessions/w/query", QueryRequest{Query: "? win(b)."}, nil)
	c.mustAddFact("w", "move", "c", "d")
	c.do("GET", "/v1/sessions/nope", nil, nil) // a 404 for status variety

	resp := c.doHdr("GET", "/metrics", nil, nil, nil)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text 0.0.4", ct)
	}
	req, _ := http.NewRequest("GET", c.srv.URL+"/metrics", nil)
	r2, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(r2.Body); err != nil {
		t.Fatal(err)
	}

	typed := map[string]string{} // family -> TYPE
	seen := map[string]bool{}    // sample names observed
	for ln, line := range strings.Split(body.String(), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !promNameRE.MatchString(parts[0]) {
				t.Fatalf("line %d: bad HELP %q", ln+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !promNameRE.MatchString(parts[0]) {
				t.Fatalf("line %d: bad TYPE %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			if _, dup := typed[parts[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, parts[0])
			}
			typed[parts[0]] = parts[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: malformed comment %q", ln+1, line)
		default:
			seen[parsePromLine(t, line)] = true
		}
	}
	// Every sample must belong to a declared family (histogram samples
	// use the _bucket/_sum/_count suffixes of their family name).
	for name := range seen {
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suf); trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
			}
		}
		if _, ok := typed[base]; !ok {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
	}
	for _, want := range []string{
		"wfsd_http_requests_total", "go_goroutines", "go_gc_pause_seconds",
		"go_sched_latency_seconds", "go_gc_cpu_seconds_total", "go_gomaxprocs",
		"wfsd_build_info",
		"wfsd_trace_entries", "wfsd_trace_recorded_total",
		"wfsd_wal_appended_records_total", "wfsd_wal_records_since_checkpoint", "wfsd_session_facts",
	} {
		if _, ok := typed[want]; !ok {
			t.Errorf("metrics output missing family %q", want)
		}
	}
	// The scheduling policy is readable off the scrape: the P count and
	// the CPU count, recorded apart.
	procs := strconv.Itoa(runtime.GOMAXPROCS(0))
	for _, want := range []string{
		`wfsd_build_info{go_version="` + runtime.Version() + `",gomaxprocs="` + procs +
			`",num_cpu="` + strconv.Itoa(runtime.NumCPU()) + `"} 1`,
		"go_gomaxprocs " + procs,
		`wfsd_wal_records_since_checkpoint{session="w"} 1`,
	} {
		if !strings.Contains(body.String(), "\n"+want+"\n") {
			t.Errorf("metrics output has no line %q", want)
		}
	}
}

// TestMatchCountersReachTraceSurfaces: the matcher's work counters —
// atoms examined, argument indexes built — arrive where an operator
// looks: inline on ?trace=1, and in the flight-recorder entry of an
// ordinary /select, whose evaluation hangs under the request's root span.
func TestMatchCountersReachTraceSurfaces(t *testing.T) {
	c := newTestClient(t, Config{})
	c.mustCreate("w", winMove)

	var qr QueryResponse
	if code := c.do("POST", "/v1/sessions/w/query?trace=1", QueryRequest{Query: "? win(b)."}, &qr); code != 200 {
		t.Fatalf("traced query: status %d", code)
	}
	m := qr.Trace.Find("match")
	if m == nil {
		t.Fatalf("traced query has no match span:\n%s", qr.Trace.Format())
	}
	if n, ok := m.Counters["candidates"]; !ok || n != 1 {
		t.Errorf("point query examined %d atoms (recorded=%v), want 1", n, ok)
	}
	if n, ok := m.Counters["index_builds"]; !ok || n != 0 {
		t.Errorf("point query built %d indexes (recorded=%v), want 0", n, ok)
	}

	const upstream = "00-5bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const wantID = "5bf92f3577b34da6a3ce929d0e0e4736"
	var sr SelectResponse
	resp := c.doHdr("POST", "/v1/sessions/w/select", map[string]string{"traceparent": upstream},
		QueryRequest{Query: "? move(b,Y), not win(Y)."}, &sr)
	// b moves to a and to c; b wins, so neither of them does.
	if resp.StatusCode != http.StatusOK || len(sr.Tuples) != 2 || sr.Tuples[0][0] != "a" || sr.Tuples[1][0] != "c" {
		t.Fatalf("select: status %d tuples %v, want [[a] [c]]", resp.StatusCode, sr.Tuples)
	}
	var rt trace.RequestTrace
	if code := c.do("GET", "/v1/traces/"+wantID, nil, &rt); code != 200 {
		t.Fatalf("trace get: status %d", code)
	}
	m = rt.Trace.Find("match")
	if m == nil {
		t.Fatalf("select trace has no match span:\n%s", rt.Trace.Format())
	}
	if m.Counters["candidates"] != 2 || m.Counters["index_builds"] != 1 {
		t.Errorf("select match counters = %v, want candidates 2 (the moves from b) and index_builds 1", m.Counters)
	}
}
