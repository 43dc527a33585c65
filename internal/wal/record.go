// Package wal is wfsd's durability subsystem: a per-session write-ahead
// log of mutation deltas plus periodic full-state snapshot checkpoints,
// and the recovery path that rebuilds every session after a restart.
//
// Layout under the data directory:
//
//	<dir>/sessions/<base64url(name)>/
//	    <epoch-hex-16>.ckpt   checkpoint: program source + options + full
//	                          database + epoch (one CRC frame; the file
//	                          written at session creation is checkpoint 0)
//	    <epoch-hex-16>.wal    segment of delta records, named by the first
//	                          epoch it contains
//
// Every record and checkpoint is framed as [u32 length][u32 CRC-32C]
// [payload]; a torn final record — the signature of a crash mid-write —
// fails the CRC or the length check and is dropped at recovery, never
// half-applied. Payloads are binary, and one fact codec (see
// encodeDelta) carries the facts of delta records and checkpoints
// alike; only a checkpoint's engine options are JSON, so they decode
// tolerantly across releases. A checkpoint payload that starts with '{'
// is the legacy all-JSON format, which recovery still reads.
//
// Deltas append with log-then-commit ordering via wfs.System's
// CommitHook: the record is written (and, with Options.Fsync, fsynced)
// before the in-memory commit, so every acknowledged mutation is
// durable. A checkpoint rotates the live segment, dumps the session state,
// writes the checkpoint atomically (temp file + rename), and garbage-
// collects the segments and checkpoints it supersedes, which bounds both
// disk usage and replay time. Recovery decodes the log tail and applies
// it in one pass through wfs.System.ApplyAll, so replay costs one
// rebuild of the database, not one per record.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

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

// openFrame appends an empty frame header to dst and returns the
// extended slice with the header's offset: the caller appends the
// payload in place and sealFrame fills the header in, so a record or
// checkpoint is encoded straight into the buffer that is written.
func openFrame(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, make([]byte, frameHeader)...), start
}

// sealFrame fills in the header of the frame opened at start, whose
// payload runs to the end of buf, and returns buf.
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
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

// Payload kinds (first payload byte). Segments hold deltas; a
// checkpoint file holds one checkpoint. A legacy checkpoint is a JSON
// object, so its first byte is '{', which no binary kind uses.
const (
	recDelta      = byte(1)
	recCheckpoint = byte(2)
)

// deltaRecord is one committed mutation batch: the epoch it committed at
// and its additions/retractions in wire-stable form.
type deltaRecord struct {
	epoch    uint64
	adds     []wfs.FactRef
	retracts []wfs.FactRef
}

// encodeDelta appends the delta payload (not the frame) to dst:
//
//	kind(1B) | epoch uvarint | adds: facts | retracts: facts
//	facts:  count uvarint, then per fact: pred string | arg count uvarint | args
//	string: len uvarint + bytes
//
// The fact encoding is the one every durable byte uses: checkpoints hold
// their database in it too (see appendCheckpoint).
func encodeDelta(dst []byte, epoch uint64, adds, retracts []wfs.FactRef) []byte {
	dst = append(dst, recDelta)
	dst = binary.AppendUvarint(dst, epoch)
	dst = appendFacts(dst, adds)
	return appendFacts(dst, retracts)
}

// appendFacts appends a fact list in the shared fact encoding.
func appendFacts(dst []byte, facts []wfs.FactRef) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(facts)))
	for _, f := range facts {
		dst = appendString(dst, f.Pred)
		dst = binary.AppendUvarint(dst, uint64(len(f.Args)))
		for _, a := range f.Args {
			dst = appendString(dst, a)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// factsSize returns the encoded size of facts, so a large encoding can
// be sized once instead of regrown.
func factsSize(facts []wfs.FactRef) int {
	n := uvarintSize(uint64(len(facts)))
	for _, f := range facts {
		n += stringSize(f.Pred) + uvarintSize(uint64(len(f.Args)))
		for _, a := range f.Args {
			n += stringSize(a)
		}
	}
	return n
}

func stringSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// decodeDelta parses a delta payload. Any structural violation — wrong
// kind byte, truncated or non-minimal varint, truncated string, trailing
// bytes — is an error; the caller treats it like a CRC failure (stop
// replay at this record).
func decodeDelta(p []byte) (deltaRecord, error) {
	var rec deltaRecord
	if len(p) == 0 || p[0] != recDelta {
		return rec, fmt.Errorf("wal: not a delta record")
	}
	d := newDecoder(p[1:])
	rec.epoch = d.uvarint()
	rec.adds = d.facts()
	rec.retracts = d.facts()
	return rec, d.finish("delta record")
}

// decoder is a sticky-error cursor over a payload. Decoded strings are
// sub-slices of one string copy of the payload, so decoding a fact list
// costs one allocation for all its text; argument lists are carved from
// shared chunks the same way. Callers that keep a decoded string beyond
// the decoded facts' use clone it, or it pins the whole payload.
type decoder struct {
	buf  []byte
	text string // string(buf): decoded strings sub-slice it
	off  int
	args []string // the current argument chunk
	err  error
}

func newDecoder(p []byte) *decoder { return &decoder{buf: p, text: string(p)} }

// finish reports the first decode error, or trailing bytes after what
// the decoder consumed.
func (d *decoder) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if rest := len(d.buf) - d.off; rest != 0 {
		return fmt.Errorf("wal: %d trailing bytes after %s", rest, what)
	}
	return nil
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("wal: truncated varint")
		return 0
	}
	if n > 1 && d.buf[d.off+n-1] == 0 {
		// The encoders write minimal varints, so this payload is not one
		// of theirs, and accepting it would let two byte strings decode
		// to one record.
		d.err = fmt.Errorf("wal: non-minimal varint")
		return 0
	}
	d.off += n
	return v
}

// span consumes a length-prefixed byte string and returns its bounds.
func (d *decoder) span() (int, int) {
	n := d.uvarint()
	if d.err != nil {
		return d.off, d.off
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("wal: truncated string")
		return d.off, d.off
	}
	lo := d.off
	d.off += int(n)
	return lo, d.off
}

func (d *decoder) str() string {
	lo, hi := d.span()
	return d.text[lo:hi]
}

func (d *decoder) bytes() []byte {
	lo, hi := d.span()
	return d.buf[lo:hi:hi]
}

func (d *decoder) facts() []wfs.FactRef {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) { // each fact costs ≥1 byte; caps allocation
		d.err = fmt.Errorf("wal: fact count %d exceeds payload size", n)
		return nil
	}
	out := make([]wfs.FactRef, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		f := wfs.FactRef{Pred: d.str()}
		nArgs := d.uvarint()
		if d.err != nil {
			break
		}
		if nArgs > uint64(len(d.buf)-d.off) {
			d.err = fmt.Errorf("wal: arg count %d exceeds payload size", nArgs)
			break
		}
		if nArgs > 0 {
			f.Args = d.argList(int(nArgs))
		}
		out = append(out, f)
	}
	return out
}

// argChunk is how many argument strings one shared allocation holds.
const argChunk = 1024

// argList decodes n argument strings into the current chunk and returns
// them as a slice whose capacity ends at its length, so an append by a
// caller can never overwrite the next fact's arguments. A chunk holds no
// more strings than the bytes left could encode (each takes at least
// its length byte), so a small delta record does not pay for a whole
// chunk.
func (d *decoder) argList(n int) []string {
	if len(d.args)+n > cap(d.args) {
		d.args = make([]string, 0, max(n, min(argChunk, len(d.buf)-d.off)))
	}
	lo := len(d.args)
	for j := 0; j < n && d.err == nil; j++ {
		d.args = append(d.args, d.str())
	}
	return d.args[lo:len(d.args):len(d.args)]
}
