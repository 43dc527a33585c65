package wal

import (
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	wfs "repro"
	"repro/internal/trace"
)

// ErrClosed marks operations against a session log that has been
// closed (shutdown or session deletion). The read-only circuit
// breaker's heal probe distinguishes it (errors.Is) from a disk that is
// still failing: a closed log means stop probing, not keep waiting.
var ErrClosed = errors.New("closed")

// DefaultCheckpointBytes is how much un-checkpointed log a session may
// accumulate before the next mutation triggers a background checkpoint.
// The log tail replays at about 70 ms per MB while a checkpoint
// re-encodes the whole database, so the only bound is in bytes of log,
// set where recovering a full tail costs about what a cold restore plus
// its first answer does (DESIGN.md, "Checkpoint policy").
const DefaultCheckpointBytes = 2 << 20

// Options configures a Manager. Zero values select the defaults noted on
// each field.
type Options struct {
	// Fsync syncs the live segment after every append, making each
	// acknowledged mutation durable against power loss, not just process
	// death. Off, durability is bounded by the OS page-cache flush
	// interval — recovery correctness (torn-tail handling, prefix
	// consistency) is unaffected either way.
	Fsync bool
	// CheckpointBytes triggers a checkpoint once this many log bytes
	// accumulate since the last one; 0 means DefaultCheckpointBytes,
	// negative disables the byte trigger.
	CheckpointBytes int64
	// FS overrides the filesystem all durability I/O goes through; nil
	// means the real OS filesystem. Tests inject failing filesystems to
	// exercise disk-fault handling (see FS).
	FS FS
}

func (o Options) withDefaults() Options {
	switch {
	case o.CheckpointBytes == 0:
		o.CheckpointBytes = DefaultCheckpointBytes
	case o.CheckpointBytes < 0:
		o.CheckpointBytes = 0 // disabled
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// Manager owns one data directory of per-session logs.
type Manager struct {
	dir  string // <data-dir>/sessions
	opts Options
	met  Metrics

	mu   sync.Mutex
	logs map[string]*SessionLog // by session name
}

// Open prepares a data directory (creating it if needed) and returns its
// manager. Open does not read anything — call Recover to rebuild the
// sessions persisted by a previous process.
func Open(dir string, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	sessions := filepath.Join(dir, "sessions")
	if err := opts.FS.MkdirAll(sessions, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	return &Manager{dir: sessions, opts: opts, logs: make(map[string]*SessionLog)}, nil
}

// Metrics returns the manager-wide durability counters.
func (m *Manager) Metrics() *Metrics { return &m.met }

// fsys returns the filesystem all I/O goes through (osFS by default).
func (m *Manager) fsys() FS { return m.opts.FS }

// sessionDir maps a session name to its directory. base64url is
// injective and filesystem-safe for every name the server's session-name
// grammar admits (≤128 bytes, no '/', no control characters).
func (m *Manager) sessionDir(name string) string {
	return filepath.Join(m.dir, base64.RawURLEncoding.EncodeToString([]byte(name)))
}

// Create starts a brand-new session log: its directory plus the initial
// checkpoint (the "source load" record — program text, options, the
// database as loaded, epoch). The checkpoint is durable before Create
// returns, so a crash immediately after session creation recovers the
// session. Fails if a log for the name already exists — including one
// left by a crashed process whose delete never completed, which recovery
// would have resurrected as a live session.
func (m *Manager) Create(name string, ck Checkpoint) (*SessionLog, error) {
	return m.CreateTraced(name, ck, nil)
}

// CreateTraced is Create recording the initial checkpoint write as a
// "wal-checkpoint" child of tr. A nil tr is Create.
func (m *Manager) CreateTraced(name string, ck Checkpoint, tr *trace.Span) (*SessionLog, error) {
	sp := tr.Child("wal-checkpoint")
	defer sp.End()
	sp.SetCount("facts", int64(len(ck.Facts)))
	dir := m.sessionDir(name)
	if _, err := m.fsys().Stat(dir); err == nil {
		return nil, fmt.Errorf("wal: session log for %q already exists", name)
	}
	if err := m.fsys().MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create session %q: %w", name, err)
	}
	ck.Name = name
	ck.WrittenAtUnixNano = time.Now().UnixNano()
	if err := writeCheckpoint(m.fsys(), dir, ck); err != nil {
		m.fsys().RemoveAll(dir)
		return nil, err
	}
	if err := syncDir(m.fsys(), m.dir); err != nil {
		return nil, err
	}
	l := &SessionLog{man: m, dir: dir, name: name, head: ck.Epoch, ckptEpoch: ck.Epoch}
	l.ckptAt.Store(ck.WrittenAtUnixNano)
	m.mu.Lock()
	m.logs[name] = l
	m.mu.Unlock()
	m.met.checkpoints.Add(1)
	return l, nil
}

// Remove closes and deletes a session's log (session deletion made
// durable).
func (m *Manager) Remove(name string) error {
	m.mu.Lock()
	l := m.logs[name]
	delete(m.logs, name)
	m.mu.Unlock()
	if l != nil {
		l.Close()
	}
	if err := m.fsys().RemoveAll(m.sessionDir(name)); err != nil {
		return fmt.Errorf("wal: remove session %q: %w", name, err)
	}
	return syncDir(m.fsys(), m.dir)
}

// Close fsyncs and closes every open session log. Callers that want a
// clean restart to replay zero records write final checkpoints first
// (SessionLog.Checkpoint per session).
func (m *Manager) Close() error {
	m.mu.Lock()
	logs := make([]*SessionLog, 0, len(m.logs))
	for _, l := range m.logs {
		logs = append(logs, l)
	}
	m.logs = make(map[string]*SessionLog)
	m.mu.Unlock()
	var firstErr error
	for _, l := range logs {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SessionLog is one session's write-ahead log: an append head over the
// live segment plus checkpoint bookkeeping. Append is called from the
// session's commit hook (so appends are serialized by the system's write
// lock as well as by mu); Checkpoint runs concurrently with appends,
// overlapping the expensive state dump with live traffic.
type SessionLog struct {
	man  *Manager
	dir  string
	name string

	mu        sync.Mutex
	closed    bool
	f         File // live segment, nil when none is open
	segSize   int64
	head      uint64 // last epoch appended (= checkpoint epoch when log is empty)
	sinceByte int64  // bytes since the last checkpoint
	ckptEpoch uint64
	buf       []byte // reused frame build buffer

	ckptAt atomic.Int64 // WrittenAtUnixNano of the newest checkpoint
	// sinceRecs counts the records since the last checkpoint: written
	// under mu, read lock-free so a metrics scrape never waits on an
	// fsync.
	sinceRecs atomic.Int64
}

// Name returns the session name the log belongs to.
func (l *SessionLog) Name() string { return l.name }

// LastCheckpoint returns when the newest checkpoint was written (taken
// from the checkpoint itself, so it survives restarts) — the
// "last-checkpoint age" observability signal.
func (l *SessionLog) LastCheckpoint() time.Time {
	return time.Unix(0, l.ckptAt.Load())
}

// RecordsSinceCheckpoint returns how many records the log holds past its
// newest checkpoint: what a recovery right now would replay.
func (l *SessionLog) RecordsSinceCheckpoint() int64 { return l.sinceRecs.Load() }

// Append serializes one committed delta to the live segment — creating a
// fresh segment named by the record's epoch when none is open — and, with
// Options.Fsync, syncs it before returning. Epochs must arrive
// contiguously (each mutation bumps the epoch by exactly one); a gap
// means the caller skipped logging a mutation and is rejected rather than
// persisted as an unreplayable log.
func (l *SessionLog) Append(epoch uint64, adds, retracts []wfs.FactRef) error {
	return l.AppendTraced(epoch, adds, retracts, nil)
}

// AppendTraced is Append recording the durability work as a
// "wal-append" child of tr, with the fsync (when Options.Fsync is on)
// as its own "wal-fsync" child — the span a mutation request's trace
// shows next to the in-memory commit. A nil tr is Append.
func (l *SessionLog) AppendTraced(epoch uint64, adds, retracts []wfs.FactRef, tr *trace.Span) error {
	sp := tr.Child("wal-append")
	defer sp.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: session log %q is %w", l.name, ErrClosed)
	}
	if epoch != l.head+1 {
		return fmt.Errorf("wal: session %q: append epoch %d, want %d (gap would corrupt replay)",
			l.name, epoch, l.head+1)
	}
	if l.f == nil {
		path := filepath.Join(l.dir, segName(epoch))
		f, err := l.man.fsys().OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			l.man.met.appendErrors.Add(1)
			return fmt.Errorf("wal: session %q: %w", l.name, err)
		}
		if err := syncDir(l.man.fsys(), l.dir); err != nil {
			f.Close()
			l.man.met.appendErrors.Add(1)
			return err
		}
		l.f, l.segSize = f, 0
	}
	frame, start := openFrame(l.buf[:0])
	frame = sealFrame(encodeDelta(frame, epoch, adds, retracts), start)
	l.buf = frame
	if _, err := l.f.Write(frame); err != nil {
		// A partial frame may have landed; roll the file back to the last
		// record boundary so the tail stays parseable.
		l.f.Truncate(l.segSize)
		l.man.met.appendErrors.Add(1)
		return fmt.Errorf("wal: session %q: append: %w", l.name, err)
	}
	if l.man.opts.Fsync {
		fs := sp.Child("wal-fsync")
		start := time.Now()
		err := l.f.Sync()
		fs.End()
		if err != nil {
			l.man.met.appendErrors.Add(1)
			return fmt.Errorf("wal: session %q: fsync: %w", l.name, err)
		}
		l.man.met.observeFsync(time.Since(start))
	}
	sp.SetCount("bytes", int64(len(frame)))
	l.segSize += int64(len(frame))
	l.head = epoch
	l.sinceRecs.Add(1)
	l.sinceByte += int64(len(frame))
	l.man.met.appendedRecords.Add(1)
	l.man.met.appendedBytes.Add(int64(len(frame)))
	return nil
}

// NeedCheckpoint reports whether the log since the last checkpoint has
// crossed the configured byte threshold.
func (l *SessionLog) NeedCheckpoint() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	o := l.man.opts
	return o.CheckpointBytes > 0 && l.sinceByte >= o.CheckpointBytes
}

// Checkpoint writes a full-state snapshot and garbage-collects the log it
// supersedes. dump is called WITHOUT the log lock held, so a slow state
// dump overlaps live appends; the ordering is:
//
//  1. rotate — close the live segment; appends continue into a fresh one.
//  2. dump() — the caller snapshots (facts, epoch) from the system. Any
//     record appended before the rotation belongs to a mutation that
//     committed before the dump could read the state (the commit hook
//     runs under the system write lock), so the dump's epoch covers every
//     record in the rotated-out segments.
//  3. write the checkpoint atomically, then delete the rotated-out
//     segments and older checkpoints.
//
// A crash between any two steps is safe: the old checkpoint plus the
// complete log always reproduce the state.
func (l *SessionLog) Checkpoint(dump func() Checkpoint) error {
	return l.CheckpointTraced(dump, nil)
}

// CheckpointTraced is Checkpoint recording the rotate / dump / write
// phases as a "wal-checkpoint" child of tr. A nil tr is Checkpoint.
func (l *SessionLog) CheckpointTraced(dump func() Checkpoint, tr *trace.Span) error {
	sp := tr.Child("wal-checkpoint")
	defer sp.End()
	endRotate := sp.Phase("rotate")
	defer endRotate() // idempotent; covers the rotation error returns
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: session log %q is %w", l.name, ErrClosed)
	}
	old, _, err := listByEpoch(l.man.fsys(), l.dir, segSuffix)
	if err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: session %q: %w", l.name, err)
	}
	if l.f != nil {
		err = l.f.Sync()
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f, l.segSize = nil, 0
		if err != nil {
			l.mu.Unlock()
			l.man.met.checkpointFailures.Add(1)
			return fmt.Errorf("wal: session %q: rotate: %w", l.name, err)
		}
	}
	l.mu.Unlock()
	endRotate()

	endDump := sp.Phase("dump-state")
	ck := dump()
	endDump()
	ck.Name = l.name
	ck.WrittenAtUnixNano = time.Now().UnixNano()
	sp.SetCount("facts", int64(len(ck.Facts)))

	endWrite := sp.Phase("write")
	defer endWrite()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: session log %q is %w", l.name, ErrClosed)
	}
	if err := writeCheckpoint(l.man.fsys(), l.dir, ck); err != nil {
		l.man.met.checkpointFailures.Add(1)
		return err
	}
	// GC: every segment that existed at rotation holds only epochs ≤
	// ck.Epoch; older checkpoints are strictly dominated. A failed
	// removal leaves a dominated file behind — harmless to recovery,
	// which always prefers the newest valid checkpoint.
	for _, p := range old {
		l.man.fsys().Remove(p)
	}
	if cks, eps, err := listByEpoch(l.man.fsys(), l.dir, ckptSuffix); err == nil {
		for i, p := range cks {
			if eps[i] < ck.Epoch {
				l.man.fsys().Remove(p)
			}
		}
	}
	syncDir(l.man.fsys(), l.dir)
	l.ckptEpoch = ck.Epoch
	l.ckptAt.Store(ck.WrittenAtUnixNano)
	l.sinceRecs.Store(0)
	l.sinceByte = 0
	l.man.met.checkpoints.Add(1)
	return nil
}

// Probe verifies the log's directory accepts durable writes again:
// create a scratch file, write, fsync, remove. The read-only circuit
// breaker calls this to decide whether a disk that failed K consecutive
// appends has healed (an admin freed space or remounted the volume)
// before letting mutations through again. The probe file never collides
// with segment or checkpoint names, so a crash mid-probe leaves only an
// ignorable foreign file.
func (l *SessionLog) Probe() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: session log %q is %w", l.name, ErrClosed)
	}
	fsys := l.man.fsys()
	path := filepath.Join(l.dir, "probe.tmp")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: session %q: probe: %w", l.name, err)
	}
	_, err = f.Write([]byte("probe"))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	fsys.Remove(path)
	if err != nil {
		return fmt.Errorf("wal: session %q: probe: %w", l.name, err)
	}
	return nil
}

// Close flushes and fsyncs the live segment and stops the log. Further
// Append/Checkpoint calls fail, so a mutation racing a shutdown is
// rejected rather than lost.
func (l *SessionLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: session %q: close: %w", l.name, err)
	}
	return nil
}
