package server

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	wfs "repro"
	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Session is one named, loaded program served by wfsd. The embedded
// wfs.System atomically publishes an immutable current snapshot (see the
// wfs package comment): read endpoints call Sys.Snapshot() and answer
// from it in parallel with no per-session serialization, while writes
// (facts) bump the epoch and invalidate it. The Session layer adds only
// identity and bookkeeping, so a Session may be used from many requests
// at once.
type Session struct {
	Name      string
	CreatedAt time.Time
	Sys       *wfs.System

	// Durability state (nil wlog when the server runs without a data
	// dir). src and opts are retained so checkpoints can persist the
	// exact compilation inputs; ckptBusy single-flights the background
	// checkpointer so a burst of mutations schedules at most one.
	src      string
	opts     wfs.Options
	wlog     *wal.SessionLog
	ckptBusy atomic.Bool
	// breaker trips the session into read-only mode after consecutive
	// WAL append failures (nil = breaker disabled). See readonly.go.
	breaker *breaker
}

// Registry is the concurrency-safe store of live sessions, bounded to
// maxSessions (0 = unbounded).
type Registry struct {
	mu          sync.RWMutex
	sessions    map[string]*Session
	maxSessions int
	now         func() time.Time // injectable for tests

	// Durability (nil wal = in-memory only): session creation writes the
	// initial checkpoint, every mutation appends to the session's log via
	// a commit hook, and deletion removes the log. Set once by
	// Server.OpenWAL before the listener starts, never mutated after.
	wal    *wal.Manager
	logger *log.Logger

	// Circuit-breaker sizing for per-session read-only protection
	// (breakerThreshold 0 = disabled) and the count of sessions whose
	// breaker is currently open, for the wfsd_wal_readonly gauge. Set
	// once by server.New.
	breakerThreshold int
	probeInterval    time.Duration
	walReadonly      atomic.Int64

	// recorder, when non-nil, receives traces of background durability
	// work (checkpoints) that no HTTP request observes. Set once by
	// server.New.
	recorder *trace.Recorder

	// ckptWG counts in-flight background checkpoints so shutdown (and
	// tests tearing down a data dir) can join them: an unjoined
	// checkpointer would race its segment writes against the final
	// CheckpointAll, or against removal of the directory it writes to.
	ckptWG sync.WaitGroup
}

// NewRegistry returns an empty registry bounded to maxSessions.
func NewRegistry(maxSessions int) *Registry {
	return &Registry{
		sessions:    make(map[string]*Session),
		maxSessions: maxSessions,
		now:         time.Now,
	}
}

// validateName enforces the session-name grammar: non-empty, at most 128
// bytes, and free of control characters and '/' (names appear in URL
// paths).
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("server: session name must be non-empty")
	}
	if len(name) > 128 {
		return fmt.Errorf("server: session name longer than 128 bytes")
	}
	if name == "." || name == ".." {
		// ServeMux path cleaning would 301-redirect these names' URLs,
		// making the session unreachable and undeletable over HTTP.
		return fmt.Errorf("server: session name %q is reserved", name)
	}
	for _, r := range name {
		if r < 0x20 || r == 0x7f || r == '/' {
			return fmt.Errorf("server: session name contains forbidden character %q", r)
		}
	}
	return nil
}

// ErrSessionExists reports a Create against a name already in use.
type ErrSessionExists struct{ Name string }

func (e *ErrSessionExists) Error() string {
	return fmt.Sprintf("server: session %q already exists", e.Name)
}

// ErrNoSession reports a lookup of an unknown session.
type ErrNoSession struct{ Name string }

func (e *ErrNoSession) Error() string {
	return fmt.Sprintf("server: no session %q", e.Name)
}

// ErrTooManySessions reports that the registry is at capacity.
type ErrTooManySessions struct{ Max int }

func (e *ErrTooManySessions) Error() string {
	return fmt.Sprintf("server: session limit reached (%d)", e.Max)
}

// ErrProgramDiagnostics reports a program rejected at session creation
// for Error-severity static-analysis findings (e.g. a rule over a
// predicate with no facts and no derivation). Diagnostics carries the
// full report, all severities, for the structured 400 body.
type ErrProgramDiagnostics struct{ Diagnostics []analysis.Diagnostic }

func (e *ErrProgramDiagnostics) Error() string {
	nerr := 0
	first := ""
	for _, d := range e.Diagnostics {
		if d.Severity == analysis.Error {
			nerr++
			if first == "" {
				first = d.String()
			}
		}
	}
	return fmt.Sprintf("server: program rejected: %d error diagnostic(s), first: %s", nerr, first)
}

// Create compiles src under opts and registers it under name. Compilation
// runs outside the registry lock so a slow load never blocks lookups; the
// name is reserved first so two racing creates cannot both win.
func (r *Registry) Create(name, src string, opts wfs.Options) (*Session, error) {
	return r.CreateTraced(name, src, opts, nil)
}

// CreateTraced is Create recording the load's phases — parse/compile,
// static analysis, the initial WAL checkpoint — under tr. A nil tr is
// Create.
func (r *Registry) CreateTraced(name, src string, opts wfs.Options, tr *trace.Span) (*Session, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, ok := r.sessions[name]; ok {
		r.mu.Unlock()
		return nil, &ErrSessionExists{Name: name}
	}
	if r.maxSessions > 0 && len(r.sessions) >= r.maxSessions {
		r.mu.Unlock()
		return nil, &ErrTooManySessions{Max: r.maxSessions}
	}
	r.sessions[name] = nil // reserve
	r.mu.Unlock()

	// Release the reservation unless the session was stored — deferred
	// so even a compiler panic cannot leak an undeletable nil entry.
	var s *Session
	defer func() {
		r.mu.Lock()
		if s == nil {
			delete(r.sessions, name)
		} else {
			r.sessions[name] = s
		}
		r.mu.Unlock()
	}()

	sys, err := wfs.LoadWithOptionsTraced(src, opts, tr)
	if err != nil {
		return nil, err
	}
	// Reject programs with Error-severity analysis findings before any
	// durable state (WAL checkpoint) is created: such a program compiles
	// but contains rules that can never fire — almost always a typo'd
	// predicate — and serving it would silently answer False forever.
	if rep := sys.Analysis(); rep != nil && rep.HasErrors() {
		return nil, &ErrProgramDiagnostics{Diagnostics: rep.Diagnostics}
	}
	sess := &Session{Name: name, CreatedAt: r.now(), Sys: sys, src: src, opts: opts}
	if r.wal != nil {
		// The initial checkpoint IS the durable "source load" record:
		// program text, options, the database as loaded, epoch 0. It is
		// fsynced before the session becomes visible, so a crash right
		// after a 201 recovers the session.
		endDump := tr.Phase("dump-state")
		facts, epoch := sys.DumpState()
		endDump()
		lg, err := r.wal.CreateTraced(name, wal.Checkpoint{
			Source: src, Options: opts, Epoch: epoch, Facts: facts,
		}, tr)
		if err != nil {
			return nil, err
		}
		sess.wlog = lg
		r.attachWAL(sess)
	}
	s = sess
	return s, nil
}

// attachWAL installs the session's commit hook: serialize and (per the
// manager's fsync option) sync every validated mutation batch to the
// session log BEFORE the in-memory commit — a log failure rejects the
// mutation — and schedule a background checkpoint when the un-
// checkpointed log crosses its threshold. Append failures feed the
// session's circuit breaker: after threshold consecutive failures the
// session goes read-only and mutations are refused up front until a
// background probe sees the disk heal (see readonly.go).
func (r *Registry) attachWAL(sess *Session) {
	sess.breaker = r.newBreaker()
	sess.Sys.SetCommitHookTraced(func(epoch uint64, adds, retracts []wfs.FactRef, tr *trace.Span) error {
		if sess.breaker.isOpen() {
			return &ErrWALUnavailable{Name: sess.Name, ReadOnly: true}
		}
		if err := sess.wlog.AppendTraced(epoch, adds, retracts, tr); err != nil {
			if sess.breaker.recordFailure() {
				if r.logger != nil {
					r.logger.Printf("wal: session %q entering read-only mode after %d consecutive append failures: %v",
						sess.Name, sess.breaker.threshold, err)
				}
				go r.probeUntilHealed(sess)
			}
			return &ErrWALUnavailable{Name: sess.Name, Err: err}
		}
		sess.breaker.recordSuccess()
		if sess.wlog.NeedCheckpoint() && sess.ckptBusy.CompareAndSwap(false, true) {
			r.ckptWG.Add(1)
			go func() {
				defer r.ckptWG.Done()
				defer sess.ckptBusy.Store(false)
				// The dump inside blocks on the system read lock until
				// the triggering mutation commits; rotation has already
				// redirected its record into the fresh segment.
				if err := r.checkpoint(sess); err != nil {
					r.logger.Printf("wal: background checkpoint of session %q: %v", sess.Name, err)
				}
			}()
		}
		return nil
	})
}

// checkpoint writes one full-state checkpoint of the session. No HTTP
// request observes this work (it runs in the background), so its trace
// is recorded directly into the flight recorder under an internal
// route; a failed checkpoint records as an error-class trace.
func (r *Registry) checkpoint(sess *Session) error {
	var root *trace.Span
	if r.recorder != nil {
		root = trace.New("checkpoint")
	}
	start := time.Now()
	err := sess.wlog.CheckpointTraced(func() wal.Checkpoint {
		facts, epoch := sess.Sys.DumpState()
		return wal.Checkpoint{Source: sess.src, Options: sess.opts, Epoch: epoch, Facts: facts}
	}, root)
	if r.recorder != nil {
		root.End()
		rt := &trace.RequestTrace{
			TraceID:       trace.MintContext().TraceIDString(),
			Route:         "internal/checkpoint",
			Session:       sess.Name,
			Status:        200,
			StartUnixNano: start.UnixNano(),
			DurationUS:    time.Since(start).Microseconds(),
			Span:          root,
		}
		if err != nil {
			rt.Status = 500
			rt.Error = err.Error()
		}
		r.recorder.Record(rt)
	}
	return err
}

// CheckpointAll writes a final checkpoint for every live session — the
// graceful-shutdown path: after it, a clean restart replays zero records.
func (r *Registry) CheckpointAll() error {
	if r.wal == nil {
		return nil
	}
	var firstErr error
	for _, name := range r.Names() {
		sess, err := r.Get(name)
		if err != nil || sess.wlog == nil {
			continue
		}
		if err := r.checkpoint(sess); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// adopt registers a session recovered from the write-ahead log, applying
// the same name/capacity rules as Create. Called by Server.OpenWAL before
// the listener starts, so there is no create/adopt race in practice; the
// locking makes it safe regardless.
func (r *Registry) adopt(sess *Session) error {
	if err := validateName(sess.Name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[sess.Name]; ok {
		return &ErrSessionExists{Name: sess.Name}
	}
	if r.maxSessions > 0 && len(r.sessions) >= r.maxSessions {
		return &ErrTooManySessions{Max: r.maxSessions}
	}
	r.sessions[sess.Name] = sess
	return nil
}

// Get returns the named session.
func (r *Registry) Get(name string) (*Session, error) {
	r.mu.RLock()
	s, ok := r.sessions[name]
	r.mu.RUnlock()
	if !ok || s == nil { // nil: creation still in flight
		return nil, &ErrNoSession{Name: name}
	}
	return s, nil
}

// Delete removes the named session, returning it (nil if absent). With
// durability
// enabled, the session's log directory is removed too (outside the
// registry lock — directory removal is IO), making the deletion survive
// restarts.
func (r *Registry) Delete(name string) *Session {
	r.mu.Lock()
	s, ok := r.sessions[name]
	if !ok || s == nil {
		r.mu.Unlock()
		return nil
	}
	delete(r.sessions, name)
	r.mu.Unlock()
	if s.wlog != nil {
		if err := r.wal.Remove(name); err != nil {
			r.logger.Printf("wal: %v", err)
		}
	}
	return s
}

// Names lists registered sessions in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sessions))
	for name, s := range r.sessions {
		if s != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Len reports the number of registered sessions (including reservations).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}
