package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// newDurableClient builds a server with durability enabled under dir and
// returns the client, the server (for Close / stats access), and what
// startup recovery did. The httptest listener is cleaned up by t; the
// Server itself is NOT closed automatically — crash tests abandon it.
func newDurableClient(t *testing.T, dir string, wopts wal.Options) (*testClient, *Server, RecoveryStats) {
	t.Helper()
	s := New(Config{})
	st, err := s.OpenWAL(dir, wopts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Crash tests abandon the server without Close, but its background
	// checkpointers must still be joined before t.TempDir's RemoveAll —
	// an in-flight checkpoint writing into the dir races the cleanup.
	// Joining writes nothing, so the crash semantics (no final
	// checkpoint) are preserved.
	t.Cleanup(s.reg.ckptWG.Wait)
	return &testClient{t: t, srv: ts}, s, st
}

func (c *testClient) mustAddFact(name, pred string, args ...string) AddFactsResponse {
	c.t.Helper()
	var out AddFactsResponse
	code := c.do("POST", "/v1/sessions/"+name+"/facts",
		AddFactsRequest{Facts: []Fact{{Pred: pred, Args: args}}}, &out)
	if code != http.StatusOK {
		c.t.Fatalf("add fact %s%v: status %d", pred, args, code)
	}
	return out
}

func (c *testClient) mustTruth(name, atom string) string {
	c.t.Helper()
	var tr TruthResponse
	if code := c.do("POST", "/v1/sessions/"+name+"/truth", QueryRequest{Atom: atom}, &tr); code != http.StatusOK {
		c.t.Fatalf("truth %s: status %d", atom, code)
	}
	return tr.Truth
}

// TestDurabilityCrashRestart simulates a crash (the server is abandoned
// without Close, so no final checkpoint is written) and checks a new
// process over the same data dir recovers every session to the exact
// pre-crash epoch, database, and semantics.
func TestDurabilityCrashRestart(t *testing.T) {
	dir := t.TempDir()
	c1, _, st := newDurableClient(t, dir, wal.Options{})
	if st.Sessions != 0 {
		t.Fatalf("fresh dir recovered %d sessions", st.Sessions)
	}
	c1.mustCreate("w", winMove)
	c1.mustCreate("a", authorship)
	// Mutate "w": the killer move. Before: win(b)=true, win(c)=false.
	// After move(c,d): win(c)=true, win(b)=undefined.
	res := c1.mustAddFact("w", "move", "c", "d")
	if res.Epoch != 1 {
		t.Fatalf("epoch after mutation: %d, want 1", res.Epoch)
	}
	if got := c1.mustTruth("w", "win(c)"); got != "true" {
		t.Fatalf("pre-crash win(c) = %s, want true", got)
	}
	// Crash: no srv1.Close(), no checkpoint beyond the creation-time one.

	c2, _, st2 := newDurableClient(t, dir, wal.Options{})
	if st2.Sessions != 2 || st2.Skipped != 0 {
		t.Fatalf("recovery: %+v, want 2 sessions 0 skipped", st2)
	}
	if st2.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1", st2.ReplayedRecords)
	}
	var info SessionInfo
	if code := c2.do("GET", "/v1/sessions/w", nil, &info); code != http.StatusOK {
		t.Fatalf("get recovered session: status %d", code)
	}
	if info.Epoch != 1 || info.Facts != 4 {
		t.Fatalf("recovered session: epoch %d facts %d, want 1/4", info.Epoch, info.Facts)
	}
	for atom, want := range map[string]string{
		"win(c)": "true",
		"win(b)": "undefined",
	} {
		if got := c2.mustTruth("w", atom); got != want {
			t.Errorf("recovered truth of %s = %s, want %s", atom, got, want)
		}
	}
	// The recovered session keeps logging: mutate, crash again, recover.
	c2.mustAddFact("w", "move", "d", "e")
	_, _, st3 := newDurableClient(t, dir, wal.Options{})
	if st3.Sessions != 2 || st3.ReplayedRecords != 2 {
		t.Fatalf("second recovery: %+v, want 2 sessions, 2 replayed", st3)
	}
}

// TestCleanShutdownReplaysZero: Server.Close writes final checkpoints, so
// the next startup replays no records (the ISSUE's clean-restart bar).
func TestCleanShutdownReplaysZero(t *testing.T) {
	dir := t.TempDir()
	c1, srv1, _ := newDurableClient(t, dir, wal.Options{})
	c1.mustCreate("w", winMove)
	for _, arg := range []string{"d", "e", "f"} {
		c1.mustAddFact("w", "move", "c", arg)
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2, _, st := newDurableClient(t, dir, wal.Options{})
	if st.Sessions != 1 || st.ReplayedRecords != 0 || st.TornTails != 0 {
		t.Fatalf("after clean shutdown: %+v, want 1 session, 0 replayed, 0 torn", st)
	}
	var info SessionInfo
	if code := c2.do("GET", "/v1/sessions/w", nil, &info); code != http.StatusOK || info.Epoch != 3 {
		t.Fatalf("recovered session: code %d epoch %d, want 200/3", code, info.Epoch)
	}
}

// TestDeleteRemovesLog: deleting a session deletes its durable state —
// it must NOT resurrect on restart.
func TestDeleteRemovesLog(t *testing.T) {
	dir := t.TempDir()
	c1, _, _ := newDurableClient(t, dir, wal.Options{})
	c1.mustCreate("doomed", winMove)
	c1.mustAddFact("doomed", "move", "c", "d")
	if code := c1.do("DELETE", "/v1/sessions/doomed", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	// The name is immediately reusable with a fresh log.
	c1.mustCreate("doomed", authorship)

	c2, _, st := newDurableClient(t, dir, wal.Options{})
	if st.Sessions != 1 {
		t.Fatalf("recovered %d sessions, want only the recreated one", st.Sessions)
	}
	var info SessionInfo
	if code := c2.do("GET", "/v1/sessions/doomed", nil, &info); code != http.StatusOK {
		t.Fatalf("get recreated session: status %d", code)
	}
	if info.Epoch != 0 {
		t.Fatalf("recreated session inherited epoch %d from the deleted one", info.Epoch)
	}
}

// TestWALObservability: /v1/stats carries the durability block and
// /metrics the wfsd_wal_* families, with counters that actually moved.
func TestWALObservability(t *testing.T) {
	dir := t.TempDir()
	c, _, _ := newDurableClient(t, dir, wal.Options{Fsync: true})
	c.mustCreate("w", winMove)
	c.mustAddFact("w", "move", "c", "d")
	c.mustAddFact("w", "move", "c", "e")

	var st ServerStatsResponse
	if code := c.do("GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", code)
	}
	if st.WAL == nil {
		t.Fatal("/v1/stats: no wal block with durability enabled")
	}
	if st.WAL.AppendedRecords != 2 || st.WAL.AppendedBytes == 0 {
		t.Errorf("wal stats appended: %+v", st.WAL)
	}
	if st.WAL.Fsyncs != 2 || st.WAL.FsyncTotalMS <= 0 {
		t.Errorf("wal stats fsync: fsyncs=%d total_ms=%v", st.WAL.Fsyncs, st.WAL.FsyncTotalMS)
	}
	if st.WAL.Checkpoints != 1 { // the creation-time checkpoint
		t.Errorf("wal stats checkpoints = %d, want 1", st.WAL.Checkpoints)
	}
	if st.WAL.RecordsSinceCheckpoint != 2 { // both mutations, past the creation-time checkpoint
		t.Errorf("wal stats records_since_checkpoint = %d, want 2", st.WAL.RecordsSinceCheckpoint)
	}
	if n := len(st.WAL.FsyncHistogram); n != len(wal.FsyncBuckets)+1 {
		t.Errorf("fsync histogram has %d buckets, want %d", n, len(wal.FsyncBuckets)+1)
	}
	var total int64
	for _, b := range st.WAL.FsyncHistogram {
		total += b.Count
	}
	if total != st.WAL.Fsyncs {
		t.Errorf("fsync histogram sums to %d, want %d", total, st.WAL.Fsyncs)
	}

	req, _ := http.NewRequest("GET", c.srv.URL+"/metrics", nil)
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	body := string(raw)
	for _, family := range []string{
		"wfsd_wal_appended_records_total 2",
		"wfsd_wal_appended_bytes_total",
		"wfsd_wal_fsync_duration_seconds_count 2",
		"wfsd_wal_fsync_duration_seconds_bucket{le=\"+Inf\"} 2",
		"wfsd_wal_checkpoints_total 1",
		"wfsd_wal_torn_tails_total 0",
		"wfsd_wal_last_checkpoint_age_seconds{session=\"w\"}",
		"wfsd_wal_records_since_checkpoint{session=\"w\"} 2",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	// A server without a data dir has no wal block and no wal families.
	cPlain := newTestClient(t, Config{})
	var stPlain ServerStatsResponse
	cPlain.do("GET", "/v1/stats", nil, &stPlain)
	if stPlain.WAL != nil {
		t.Error("in-memory server reports a wal block")
	}
}

// TestBackgroundCheckpoint: crossing the byte threshold schedules an
// async checkpoint that truncates the replay tail for the next restart.
func TestBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Each mutation below logs a 22-byte record: the threshold is two.
	c, srv, _ := newDurableClient(t, dir, wal.Options{CheckpointBytes: 2 * 22})
	c.mustCreate("w", winMove)
	args := []string{"d", "e", "f", "g"}
	for _, a := range args {
		c.mustAddFact("w", "move", "c", a)
	}
	// Creation wrote checkpoint #1; the threshold crossings schedule more
	// in the background. Poll — the checkpointer is async by design.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.wal.Metrics().Read().Checkpoints >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint after %d mutations with threshold 2", len(args))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Quiesce — join every checkpointer the first server started, so none
	// is still writing into the directory — then crash-restart: the
	// checkpoint must have shortened the replay tail below the full
	// mutation count, without losing state.
	srv.reg.ckptWG.Wait()
	_, _, st := newDurableClient(t, dir, wal.Options{})
	if st.Sessions != 1 {
		t.Fatalf("recovered %d sessions, want 1", st.Sessions)
	}
	if st.ReplayedRecords >= len(args) {
		t.Errorf("replayed %d records, want fewer than %d after a checkpoint", st.ReplayedRecords, len(args))
	}
}
