package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	wfs "repro"
)

// Checkpoint is one full-state snapshot of a session: everything needed
// to rebuild a warm system without the log — the program source and
// engine options (so the session compiles identically), the complete
// database as store-independent facts, and the epoch the dump was taken
// at. Replay then applies only the delta records with epoch > Epoch.
//
// The payload (see appendCheckpoint) sits inside the same CRC frame as
// log records: a checkpoint torn by a crash mid-write fails validation
// and recovery falls back to the previous one (checkpoints are written
// to a temp file and renamed into place, so the previous one is never
// destroyed first). The JSON tags describe the legacy format, a JSON
// object, which recovery still reads; nothing writes it any more.
type Checkpoint struct {
	Name              string        `json:"name"`
	Source            string        `json:"source"`
	Options           wfs.Options   `json:"options"`
	Epoch             uint64        `json:"epoch"`
	Facts             []wfs.FactRef `json:"facts"`
	WrittenAtUnixNano int64         `json:"written_at_unix_nano"`
}

// appendCheckpoint appends the binary checkpoint payload (not the frame)
// to dst:
//
//	kind(1B)=2 | name string | epoch uvarint | written-at uvarint (int64 bits)
//	| options string | source string | facts
//
// with strings and facts as in encodeDelta, so one fact codec serves the
// log and the checkpoint. opts is the JSON of ck.Options: options decode
// tolerantly, a field a later release drops or adds is ignored rather
// than failing recovery, so they alone keep a JSON form.
func appendCheckpoint(dst []byte, ck Checkpoint, opts []byte) []byte {
	dst = append(dst, recCheckpoint)
	dst = appendString(dst, ck.Name)
	dst = binary.AppendUvarint(dst, ck.Epoch)
	dst = binary.AppendUvarint(dst, uint64(ck.WrittenAtUnixNano))
	dst = appendString(dst, string(opts))
	dst = appendString(dst, ck.Source)
	return appendFacts(dst, ck.Facts)
}

// decodeCheckpoint parses a checkpoint payload and also returns its
// options JSON as stored (nil for a legacy checkpoint), which
// appendCheckpoint turns back into the same bytes. A payload starting
// with '{' is a legacy JSON checkpoint. A binary payload is held to the
// rules decodeDelta enforces: minimal varints, no truncation, no
// trailing bytes. The facts' strings share one copy of the payload, so
// they are meant to be interned and dropped; the name and source are
// cloned, since a session keeps them.
func decodeCheckpoint(p []byte) (Checkpoint, []byte, error) {
	var ck Checkpoint
	if len(p) > 0 && p[0] == '{' {
		err := json.Unmarshal(p, &ck)
		return ck, nil, err
	}
	if len(p) == 0 || p[0] != recCheckpoint {
		return ck, nil, fmt.Errorf("wal: not a checkpoint")
	}
	d := newDecoder(p[1:])
	ck.Name = strings.Clone(d.str())
	ck.Epoch = d.uvarint()
	ck.WrittenAtUnixNano = int64(d.uvarint())
	opts := d.bytes()
	ck.Source = strings.Clone(d.str())
	ck.Facts = d.facts()
	if err := d.finish("checkpoint"); err != nil {
		return ck, nil, err
	}
	if err := json.Unmarshal(opts, &ck.Options); err != nil {
		return ck, nil, fmt.Errorf("wal: checkpoint options: %w", err)
	}
	return ck, opts, nil
}

const (
	segSuffix  = ".wal"
	ckptSuffix = ".ckpt"
	ckptTmp    = "ckpt.tmp"
)

// segName / ckptName render file names whose lexical order is epoch
// order (fixed-width hex).
func segName(firstEpoch uint64) string { return fmt.Sprintf("%016x%s", firstEpoch, segSuffix) }
func ckptName(epoch uint64) string     { return fmt.Sprintf("%016x%s", epoch, ckptSuffix) }

// parseEpoch extracts the epoch from a segment or checkpoint file name.
func parseEpoch(name, suffix string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, suffix)
	if !ok || len(base) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(base, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// writeCheckpoint atomically persists ck into dir: encode it straight
// into its frame, write to a temp file, fsync it, rename to its final
// epoch-stamped name, and fsync the directory so the rename itself is
// durable.
func writeCheckpoint(fsys FS, dir string, ck Checkpoint) error {
	opts, err := json.Marshal(ck.Options)
	if err != nil {
		return fmt.Errorf("wal: encode checkpoint options: %w", err)
	}
	size := frameHeader + 1 + stringSize(ck.Name) + uvarintSize(ck.Epoch) + uvarintSize(uint64(ck.WrittenAtUnixNano)) +
		stringSize(string(opts)) + stringSize(ck.Source) + factsSize(ck.Facts)
	frame, start := openFrame(make([]byte, 0, size))
	frame = sealFrame(appendCheckpoint(frame, ck, opts), start)
	tmp := filepath.Join(dir, ckptTmp)
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	// NB: assign to err, never shadow it — a swallowed write error here
	// would rename a torn checkpoint into place and let GC delete the
	// good one it supposedly superseded, losing acked state.
	_, err = f.Write(frame)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	final := filepath.Join(dir, ckptName(ck.Epoch))
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	return syncDir(fsys, dir)
}

// readCheckpoint loads and validates one checkpoint file: exactly one
// intact frame holding a well-formed checkpoint, decoded in place.
func readCheckpoint(fsys FS, path string) (Checkpoint, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	var payload []byte
	valid, torn, _ := scanFrames(data, func(p []byte) error {
		if payload != nil {
			return fmt.Errorf("wal: multiple frames in checkpoint %s", filepath.Base(path))
		}
		payload = p
		return nil
	})
	if torn || payload == nil || valid != int64(len(data)) {
		return Checkpoint{}, fmt.Errorf("wal: checkpoint %s is torn or corrupt", filepath.Base(path))
	}
	ck, _, err := decodeCheckpoint(payload)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("wal: checkpoint %s: %w", filepath.Base(path), err)
	}
	return ck, nil
}

// listByEpoch returns the files in dir with the given suffix, sorted by
// ascending embedded epoch. Foreign files are ignored.
func listByEpoch(fsys FS, dir, suffix string) ([]string, []uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type item struct {
		name  string
		epoch uint64
	}
	var items []item
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if ep, ok := parseEpoch(e.Name(), suffix); ok {
			items = append(items, item{e.Name(), ep})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].epoch < items[j].epoch })
	names := make([]string, len(items))
	epochs := make([]uint64, len(items))
	for i, it := range items {
		names[i] = filepath.Join(dir, it.name)
		epochs[i] = it.epoch
	}
	return names, epochs, nil
}

// syncDir fsyncs a directory so entry creations/renames/removals within
// it are durable. A directory that cannot be opened is tolerated (some
// platforms cannot fsync directories at all), but a sync that the
// filesystem actively fails is reported — an injected EIO here must not
// be silently acked as durable.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return nil
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}
