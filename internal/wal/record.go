// Package wal is wfsd's durability subsystem: a per-session write-ahead
// log of mutation deltas plus periodic full-state snapshot checkpoints,
// and the recovery path that rebuilds every session after a restart.
//
// Layout under the data directory:
//
//	<dir>/sessions/<base64url(name)>/
//	    <epoch-hex-16>.ckpt   checkpoint: program source + options + full
//	                          database + epoch (CRC-framed JSON; the file
//	                          written at session creation is checkpoint 0)
//	    <epoch-hex-16>.wal    segment of delta records, named by the first
//	                          epoch it contains
//
// Every record and checkpoint is framed as [u32 length][u32 CRC-32C]
// [payload]; a torn final record — the signature of a crash mid-write —
// fails the CRC or the length check and is dropped at recovery, never
// half-applied. Deltas append with log-then-commit ordering via
// wfs.System's CommitHook: the record is written (and, with Options.Fsync,
// fsynced) before the in-memory commit, so every acknowledged mutation is
// durable. A checkpoint rotates the live segment, dumps the session state,
// writes the checkpoint atomically (temp file + rename), and garbage-
// collects the segments and checkpoints it supersedes, which bounds both
// disk usage and replay time.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	wfs "repro"
)

// Frame layout: [u32 payload length][u32 CRC-32C of payload][payload],
// both integers little-endian. The CRC covers only the payload; a frame
// whose length field itself is torn fails the bounds checks instead.
const frameHeader = 8

// maxRecordSize rejects absurd length fields when scanning: a corrupt
// length would otherwise read garbage as a giant record. Checkpoints (the
// larger codec users) hold a full database dump, so the cap is generous.
const maxRecordSize = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one framed payload to dst and returns the extended
// slice.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// scanFrames walks the framed records in data, calling fn with each
// payload. It returns the byte offset just past the last frame that was
// both intact and accepted by fn, whether the walk stopped early on a
// torn/corrupt frame (short header, short payload, zero or oversized
// length, CRC mismatch), and fn's error if fn stopped the walk. In every
// early-stop case, valid is a safe truncation point: data[:valid] is a
// whole number of intact records.
func scanFrames(data []byte, fn func(payload []byte) error) (valid int64, torn bool, fnErr error) {
	off := 0
	for off < len(data) {
		if off+frameHeader > len(data) {
			return int64(off), true, nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > maxRecordSize || off+frameHeader+n > len(data) {
			return int64(off), true, nil
		}
		sum := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return int64(off), true, nil
		}
		if err := fn(payload); err != nil {
			return int64(off), false, err
		}
		off += frameHeader + n
	}
	return int64(off), false, nil
}

// Record kinds (first payload byte). Only deltas live in segments today;
// the kind byte keeps the format open for e.g. replication watermarks.
const recDelta = byte(1)

// deltaRecord is one committed mutation batch: the epoch it committed at
// and its additions/retractions in wire-stable form.
type deltaRecord struct {
	epoch    uint64
	adds     []wfs.FactRef
	retracts []wfs.FactRef
}

// encodeDelta appends the delta payload (not the frame) to dst:
//
//	kind(1B) | epoch uvarint | adds: count uvarint, facts | retracts: same
//	fact: pred len uvarint + bytes | arg count uvarint | per arg: len + bytes
func encodeDelta(dst []byte, epoch uint64, adds, retracts []wfs.FactRef) []byte {
	dst = append(dst, recDelta)
	dst = binary.AppendUvarint(dst, epoch)
	for _, side := range [2][]wfs.FactRef{adds, retracts} {
		dst = binary.AppendUvarint(dst, uint64(len(side)))
		for _, f := range side {
			dst = binary.AppendUvarint(dst, uint64(len(f.Pred)))
			dst = append(dst, f.Pred...)
			dst = binary.AppendUvarint(dst, uint64(len(f.Args)))
			for _, a := range f.Args {
				dst = binary.AppendUvarint(dst, uint64(len(a)))
				dst = append(dst, a...)
			}
		}
	}
	return dst
}

// decodeDelta parses a delta payload. Any structural violation — wrong
// kind byte, truncated or non-minimal varint, truncated string, trailing
// bytes — is an error;
// the caller treats it like a CRC failure (stop replay at this record).
func decodeDelta(p []byte) (deltaRecord, error) {
	var rec deltaRecord
	if len(p) == 0 || p[0] != recDelta {
		return rec, fmt.Errorf("wal: not a delta record")
	}
	d := decoder{buf: p[1:]}
	rec.epoch = d.uvarint()
	rec.adds = d.facts()
	rec.retracts = d.facts()
	if d.err != nil {
		return rec, d.err
	}
	if len(d.buf) != 0 {
		return rec, fmt.Errorf("wal: %d trailing bytes after delta record", len(d.buf))
	}
	return rec, nil
}

// decoder is a sticky-error cursor over a delta payload.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("wal: truncated varint in delta record")
		return 0
	}
	if n > 1 && d.buf[n-1] == 0 {
		// encodeDelta writes minimal varints, so this record is not one
		// of its records, and accepting it would let two byte strings
		// decode to one delta.
		d.err = fmt.Errorf("wal: non-minimal varint in delta record")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("wal: truncated string in delta record")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) facts() []wfs.FactRef {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf)) { // each fact costs ≥1 byte; caps allocation
		d.err = fmt.Errorf("wal: fact count %d exceeds record size", n)
		return nil
	}
	out := make([]wfs.FactRef, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		f := wfs.FactRef{Pred: d.str()}
		nArgs := d.uvarint()
		if d.err != nil {
			break
		}
		if nArgs > uint64(len(d.buf)) {
			d.err = fmt.Errorf("wal: arg count %d exceeds record size", nArgs)
			break
		}
		if nArgs > 0 {
			f.Args = make([]string, 0, nArgs)
			for j := uint64(0); j < nArgs && d.err == nil; j++ {
				f.Args = append(f.Args, d.str())
			}
		}
		out = append(out, f)
	}
	return out
}
