package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	wfs "repro"
	"repro/internal/trace"
)

// Recovered is one session rebuilt from disk: a warm system at the exact
// epoch the previous process last durably committed, plus the reopened
// log positioned to continue appending at the next epoch.
type Recovered struct {
	Name    string
	Source  string
	Options wfs.Options
	Sys     *wfs.System
	Log     *SessionLog

	CheckpointEpoch uint64 // epoch of the checkpoint replay started from
	Replayed        int    // delta records applied after the checkpoint
	TornTail        bool   // a torn/corrupt record was dropped from the log tail
}

// Skipped reports a session directory that could not be recovered (no
// readable checkpoint, or a checkpoint that no longer compiles). The
// directory is left on disk for manual inspection; it does not block
// recovery of the other sessions.
type Skipped struct {
	Dir string
	Err error
}

// Recover rebuilds every session persisted under the data directory:
// load the newest valid checkpoint (falling back to older ones if the
// newest is torn), Restore a system from it, replay the delta tail in
// epoch order in one pass (wfs.System.ApplyAll), and truncate away any
// torn final record a crash mid-write left behind. Replay stops at the
// first record that is torn, out of sequence, or fails to apply —
// everything before it is a consistent prefix, everything from it on is
// dropped from the log so the repaired log and the recovered state
// agree exactly.
func (m *Manager) Recover() ([]Recovered, []Skipped, error) {
	return m.RecoverTraced(nil)
}

// RecoverTraced is Recover recording one "recover-session" child span
// per session directory (checkpoint load, restore, replay phases plus
// replayed/torn counters) under tr — the span tree the server pins into
// the flight recorder as the startup trace. A nil tr is Recover.
func (m *Manager) RecoverTraced(tr *trace.Span) ([]Recovered, []Skipped, error) {
	ents, err := m.fsys().ReadDir(m.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: recover: %w", err)
	}
	start := time.Now()
	var out []Recovered
	var skipped []Skipped
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(m.dir, e.Name())
		sp := tr.Child("recover-session")
		rec, err := m.recoverSession(dir, sp)
		if err != nil {
			sp.SetCount("skipped", 1)
			sp.End()
			skipped = append(skipped, Skipped{Dir: dir, Err: err})
			continue
		}
		sp.SetCount("replayed", int64(rec.Replayed))
		if rec.TornTail {
			sp.SetCount("torn_tail", 1)
		}
		sp.End()
		m.mu.Lock()
		m.logs[rec.Name] = rec.Log
		m.mu.Unlock()
		out = append(out, rec)
	}
	m.met.recoveredSessions.Store(int64(len(out)))
	m.met.replayNS.Store(time.Since(start).Nanoseconds())
	return out, skipped, nil
}

// recoverSession rebuilds one session directory, recording its phases
// under tr (nil disables tracing).
func (m *Manager) recoverSession(dir string, tr *trace.Span) (Recovered, error) {
	endLoad := tr.Phase("load-checkpoint")
	ck, err := loadNewestCheckpoint(m.fsys(), dir)
	endLoad()
	if err != nil {
		return Recovered{}, err
	}
	sp := tr.Child("restore")
	sys, err := wfs.Restore(ck.Source, ck.Options, ck.Facts, ck.Epoch, sp)
	sp.End()
	if err != nil {
		return Recovered{}, err
	}
	rec := Recovered{
		Name:            ck.Name,
		Source:          ck.Source,
		Options:         ck.Options,
		Sys:             sys,
		CheckpointEpoch: ck.Epoch,
	}

	endReplay := tr.Phase("replay")
	defer endReplay() // idempotent; covers the replay error returns
	segs, _, err := listByEpoch(m.fsys(), dir, segSuffix)
	if err != nil {
		return Recovered{}, err
	}
	// Read the tail: every record after the checkpoint, in epoch order,
	// up to the first that is torn, undecodable or out of sequence. cut
	// is the segment holding that record (-1: none) and valid[i] the
	// length of segment i's prefix that stays.
	type recordAt struct {
		seg int
		off int64
	}
	var tail []*wfs.Delta
	var at []recordAt
	valid := make([]int64, len(segs))
	cut := -1
	cur := ck.Epoch
	for i, path := range segs {
		data, err := m.fsys().ReadFile(path)
		if err != nil {
			return Recovered{}, err
		}
		if len(data) == 0 {
			// A crash between segment creation and the first write leaves
			// an empty file named for an epoch that has not committed;
			// drop it so a future append can recreate that name.
			if err := m.fsys().Remove(path); err != nil {
				return Recovered{}, err
			}
			segs[i] = ""
			continue
		}
		var off int64
		v, torn, fnErr := scanFrames(data, func(payload []byte) error {
			start := off
			off += int64(frameHeader + len(payload))
			d, err := decodeDelta(payload)
			if err != nil {
				return err
			}
			if d.epoch <= cur {
				return nil // covered by the checkpoint
			}
			if d.epoch != cur+1 {
				return fmt.Errorf("wal: epoch gap: record %d after %d", d.epoch, cur)
			}
			delta := wfs.NewDelta()
			for _, f := range d.adds {
				delta.Add(f.Pred, f.Args...)
			}
			for _, f := range d.retracts {
				delta.Retract(f.Pred, f.Args...)
			}
			tail = append(tail, delta)
			at = append(at, recordAt{i, start})
			cur = d.epoch
			return nil
		})
		valid[i] = v
		if torn || fnErr != nil {
			cut = i
			break
		}
	}
	// Apply the tail in one pass. A record that does not apply to the
	// state its predecessors left ends the consistent prefix like a torn
	// one: the records before it stay committed, it and all after it go.
	n, err := sys.ApplyAll(tail)
	if err != nil {
		cut = at[n].seg
		valid[cut] = at[n].off
		cur = ck.Epoch + uint64(n)
	}
	rec.Replayed = n
	if cut >= 0 {
		// Repair: cut this segment back to the consistent prefix and
		// drop everything after it (later segments are unreachable
		// under the contiguity invariant). The repaired log now ends
		// exactly at the recovered state.
		rec.TornTail = true
		m.met.tornTails.Add(1)
		if valid[cut] == 0 {
			if err := m.fsys().Remove(segs[cut]); err != nil {
				return Recovered{}, err
			}
		} else if err := m.fsys().Truncate(segs[cut], valid[cut]); err != nil {
			return Recovered{}, err
		}
		for _, later := range segs[cut+1:] {
			if later == "" {
				continue // already removed as empty
			}
			if err := m.fsys().Remove(later); err != nil {
				return Recovered{}, err
			}
		}
		syncDir(m.fsys(), dir)
		segs = segs[:cut+1]
	}
	// The log's new tail is the last segment that still holds records,
	// and the bytes since the checkpoint are every kept prefix.
	var sinceBytes int64
	lastSeg, lastSize := "", int64(0)
	for i, path := range segs {
		sinceBytes += valid[i]
		if valid[i] > 0 {
			lastSeg, lastSize = path, valid[i]
		}
	}

	endReplay()
	l := &SessionLog{
		man:       m,
		dir:       dir,
		name:      ck.Name,
		head:      cur,
		ckptEpoch: ck.Epoch,
		sinceByte: sinceBytes,
	}
	l.ckptAt.Store(ck.WrittenAtUnixNano)
	l.sinceRecs.Store(int64(rec.Replayed))
	if lastSeg != "" {
		f, err := m.fsys().OpenFile(lastSeg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return Recovered{}, err
		}
		l.f, l.segSize = f, lastSize
	}
	m.met.replayedRecords.Add(int64(rec.Replayed))
	rec.Log = l
	return rec, nil
}

// loadNewestCheckpoint returns the highest-epoch checkpoint in dir that
// validates, trying older ones when the newest is torn (a crash during a
// checkpoint write can leave a bad newest file only if the rename
// happened; the previous checkpoint is never deleted before the new one
// is durable).
func loadNewestCheckpoint(fsys FS, dir string) (Checkpoint, error) {
	paths, _, err := listByEpoch(fsys, dir, ckptSuffix)
	if err != nil {
		return Checkpoint{}, err
	}
	var lastErr error
	for i := len(paths) - 1; i >= 0; i-- {
		ck, err := readCheckpoint(fsys, paths[i])
		if err == nil {
			return ck, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("wal: no checkpoint found")
	}
	return Checkpoint{}, lastErr
}
