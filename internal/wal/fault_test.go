package wal

import (
	"fmt"
	iofs "io/fs"
	"os"
	"sync"
	"syscall"
	"testing"

	wfs "repro"
)

// faultFS delegates to the real filesystem but fails exactly one I/O
// operation — the failAt-th, counting every FS- and File-level call —
// with the injected error. Counting both layers sweeps a fault across
// every I/O point the log performs: segment open, frame write, file
// fsync, directory open/fsync, checkpoint temp write, rename, GC
// removals, recovery reads, truncations.
type faultFS struct {
	real osFS

	mu     sync.Mutex
	count  int
	failAt int // 1-based operation index to fail; 0 = never
	errInj error
	ops    []string // every operation seen, for sweep sizing and debugging
}

func (f *faultFS) tick(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	f.ops = append(f.ops, op)
	if f.failAt > 0 && f.count == f.failAt {
		return f.errInj
	}
	return nil
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := f.tick("openfile " + name); err != nil {
		return nil, err
	}
	file, err := f.real.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: name}, nil
}

func (f *faultFS) Open(name string) (File, error) {
	if err := f.tick("open " + name); err != nil {
		return nil, err
	}
	file, err := f.real.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: name}, nil
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if err := f.tick("readfile " + name); err != nil {
		return nil, err
	}
	return f.real.ReadFile(name)
}

func (f *faultFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	if err := f.tick("readdir " + name); err != nil {
		return nil, err
	}
	return f.real.ReadDir(name)
}

func (f *faultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.tick("mkdirall " + path); err != nil {
		return err
	}
	return f.real.MkdirAll(path, perm)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.tick("rename " + newpath); err != nil {
		return err
	}
	return f.real.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if err := f.tick("remove " + name); err != nil {
		return err
	}
	return f.real.Remove(name)
}

func (f *faultFS) RemoveAll(path string) error {
	if err := f.tick("removeall " + path); err != nil {
		return err
	}
	return f.real.RemoveAll(path)
}

func (f *faultFS) Truncate(name string, size int64) error {
	if err := f.tick("truncate " + name); err != nil {
		return err
	}
	return f.real.Truncate(name, size)
}

func (f *faultFS) Stat(name string) (iofs.FileInfo, error) {
	if err := f.tick("stat " + name); err != nil {
		return nil, err
	}
	return f.real.Stat(name)
}

// faultFile counts the per-handle operations through the same counter.
type faultFile struct {
	fs   *faultFS
	f    File
	name string
}

func (w *faultFile) Write(p []byte) (int, error) {
	if err := w.fs.tick("write " + w.name); err != nil {
		return 0, err
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	if err := w.fs.tick("fsync " + w.name); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *faultFile) Truncate(size int64) error {
	if err := w.fs.tick("ftruncate " + w.name); err != nil {
		return err
	}
	return w.f.Truncate(size)
}

func (w *faultFile) Close() error {
	// Close is not a fault point: the log treats close errors like sync
	// errors, and injecting them would only re-cover the sync paths.
	return w.f.Close()
}

const faultSrc = "p(a).\n"

// runFaultWorkload drives one session through the log's full I/O
// surface — create (initial checkpoint), appends, a mid-stream
// checkpoint with rotation and GC, more appends, close — under the
// given filesystem. It returns the highest epoch that was ACKED (Append
// returned nil) and the op log. A failed append is retried once at the
// same epoch, modelling the server's behaviour where a rejected
// mutation leaves the epoch unbumped and a later client retries.
func runFaultWorkload(t *testing.T, ffs *faultFS, dir string) (acked uint64, created bool) {
	t.Helper()
	m, err := Open(dir, Options{Fsync: true, CheckpointBytes: -1, FS: ffs})
	if err != nil {
		return 0, false
	}
	defer m.Close()
	l, err := m.Create("s", Checkpoint{Source: faultSrc, Epoch: 0})
	if err != nil {
		return 0, false
	}
	append1 := func(epoch uint64) bool {
		adds := []wfs.FactRef{{Pred: "q", Args: []string{fmt.Sprintf("e%d", epoch)}}}
		if l.Append(epoch, adds, nil) == nil {
			return true
		}
		return l.Append(epoch, adds, nil) == nil // one retry, as a healed disk would see
	}
	facts := []wfs.FactRef(nil)
	for e := uint64(1); e <= 3; e++ {
		if !append1(e) {
			return acked, true
		}
		acked = e
		facts = append(facts, wfs.FactRef{Pred: "q", Args: []string{fmt.Sprintf("e%d", e)}})
	}
	ckFacts := append([]wfs.FactRef(nil), facts...)
	ckEpoch := acked
	l.Checkpoint(func() Checkpoint {
		return Checkpoint{Source: faultSrc, Epoch: ckEpoch, Facts: ckFacts}
	}) // a failed checkpoint must never lose acked state
	for e := acked + 1; e <= 6; e++ {
		if !append1(e) {
			return acked, true
		}
		acked = e
	}
	return acked, true
}

// TestFaultSweep injects ENOSPC and EIO into every single I/O operation
// the append/checkpoint/rotate/GC workload performs, one operation per
// run, and asserts the durability contract each time: after reopening
// the directory with a healthy filesystem, recovery rebuilds a state
// that contains every acked mutation — nothing acknowledged is ever
// lost, no matter which syscall failed. (The converse — a mutation that
// was durably logged but whose ack errored, e.g. a post-write fsync
// failure — may legitimately reappear on recovery, exactly like a
// committed-but-unacknowledged transaction in any WAL system; recovery
// must still be a consistent prefix extension of the acked state.)
func TestFaultSweep(t *testing.T) {
	discover := &faultFS{}
	dir := t.TempDir()
	acked, _ := runFaultWorkload(t, discover, dir)
	if acked != 6 {
		t.Fatalf("clean workload acked %d epochs, want 6", acked)
	}
	total := discover.count
	if total < 20 {
		t.Fatalf("workload performed only %d I/O ops — seam not covering the I/O surface", total)
	}
	for _, inj := range []error{syscall.ENOSPC, syscall.EIO} {
		for k := 1; k <= total; k++ {
			name := fmt.Sprintf("%v-op%02d", inj, k)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				ffs := &faultFS{failAt: k, errInj: inj}
				acked, created := runFaultWorkload(t, ffs, dir)
				failedOp := ""
				if k <= len(ffs.ops) {
					failedOp = ffs.ops[k-1]
				}

				// Recover with a healthy filesystem, as a restarted
				// process on a healed disk would.
				m2, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("reopen after fault at %q: %v", failedOp, err)
				}
				defer m2.Close()
				recs, skipped, err := m2.Recover()
				if err != nil {
					t.Fatalf("recover after fault at %q: %v", failedOp, err)
				}
				if !created || acked == 0 {
					// Nothing was ever acked; any recovery outcome that
					// doesn't invent state is fine. A session directory
					// may exist (create's cleanup can itself fail) but
					// must recover to an un-invented prefix.
					for _, r := range recs {
						if got := r.Sys.Epoch(); got > 6 {
							t.Errorf("fault at %q: recovered epoch %d was never attempted", failedOp, got)
						}
					}
					return
				}
				if len(recs) != 1 {
					t.Fatalf("fault at %q: recovered %d sessions (skipped %d), want 1; acked epoch %d",
						failedOp, len(recs), len(skipped), acked)
				}
				rec := recs[0]
				got := rec.Sys.Epoch()
				if got < acked {
					t.Errorf("fault at %q: recovered epoch %d < acked epoch %d — acked mutation lost",
						failedOp, got, acked)
				}
				if got > 6 {
					t.Errorf("fault at %q: recovered epoch %d was never attempted", failedOp, got)
				}
				// The recovered database must be exactly the prefix of
				// the attempted mutations up to the recovered epoch:
				// initial facts none, epoch e added q(e<e>).
				if want := int(got); rec.Sys.NumFacts() != want {
					t.Errorf("fault at %q: recovered %d facts at epoch %d, want %d",
						failedOp, rec.Sys.NumFacts(), got, want)
				}
				for e := uint64(1); e <= got; e++ {
					tv, err := rec.Sys.TruthOf(fmt.Sprintf("q(e%d)", e))
					if err != nil || tv != wfs.True {
						t.Errorf("fault at %q: recovered state missing q(e%d): %v %v", failedOp, e, tv, err)
					}
				}
			})
		}
	}
}

// TestProbe exercises the breaker's heal probe: it fails while the
// directory rejects writes and succeeds once the filesystem heals.
func TestProbe(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultFS{}
	m, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	l, err := m.Create("s", Checkpoint{Source: faultSrc, Epoch: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Probe(); err != nil {
		t.Fatalf("probe on healthy fs: %v", err)
	}
	ffs.mu.Lock()
	ffs.failAt = ffs.count + 1 // next op (the probe's OpenFile) fails
	ffs.errInj = syscall.ENOSPC
	ffs.mu.Unlock()
	if err := l.Probe(); err == nil {
		t.Fatal("probe succeeded on a failing filesystem")
	}
	if err := l.Probe(); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
}
