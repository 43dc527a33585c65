package wal

import (
	"bytes"
	"encoding/json"
	"testing"

	wfs "repro"
)

// FuzzDecodeDelta feeds arbitrary bytes to the WAL record decoders. The
// delta decoder must never panic and must accept only what encodeDelta
// writes: a decoded record re-encodes to the same bytes. The frame scanner
// must return a truncation point inside the input at which a rescan sees
// the same records and nothing torn.
func FuzzDecodeDelta(f *testing.F) {
	fact := func(pred string, args ...string) wfs.FactRef { return wfs.FactRef{Pred: pred, Args: args} }
	for _, p := range [][]byte{
		encodeDelta(nil, 0, nil, nil),
		encodeDelta(nil, 1, []wfs.FactRef{fact("move", "a", "b")}, nil),
		encodeDelta(nil, 1<<40, []wfs.FactRef{fact("r", "z9", "z9", "yz9"), fact("p", "z9", "z9"), fact("flag")},
			[]wfs.FactRef{fact("move", "c", "d")}),
		encodeDelta(nil, 300, []wfs.FactRef{fact("näme", "é", "日本", "")}, []wfs.FactRef{fact("p", "\x00\xff")}),
	} {
		for cut := len(p); cut >= 0; cut -= max(1, len(p)/4) {
			f.Add(p[:cut])
		}
		f.Add(appendFrame(appendFrame(nil, p), p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := decodeDelta(data); err == nil {
			if again := encodeDelta(nil, rec.epoch, rec.adds, rec.retracts); !bytes.Equal(again, data) {
				t.Fatalf("decoded %+v re-encodes to %x, want %x", rec, again, data)
			}
		}
		for _, in := range [][]byte{data, appendFrame(appendFrame(nil, data), data)} {
			var recs [][]byte
			valid, _, err := scanFrames(in, func(p []byte) error {
				recs = append(recs, p)
				return nil
			})
			if err != nil || valid < 0 || valid > int64(len(in)) {
				t.Fatalf("scanFrames = %d, %v on %d bytes", valid, err, len(in))
			}
			var again [][]byte
			valid2, torn, _ := scanFrames(in[:valid], func(p []byte) error {
				again = append(again, p)
				return nil
			})
			if valid2 != valid || torn || len(again) != len(recs) {
				t.Fatalf("rescan of %d bytes = %d, torn=%v, %d records; want %d, false, %d",
					valid, valid2, torn, len(again), valid, len(recs))
			}
			for i := range recs {
				if !bytes.Equal(recs[i], again[i]) {
					t.Fatalf("rescan record %d differs", i)
				}
			}
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder.
// It must never panic, and it must accept only what appendCheckpoint
// writes: a binary checkpoint that decodes re-encodes to the same bytes
// (its options JSON carried as stored, since options decode tolerantly),
// which rules out non-minimal varints as FuzzDecodeDelta does. A legacy
// JSON checkpoint only has to decode or fail cleanly.
func FuzzDecodeCheckpoint(f *testing.F) {
	encode := func(ck Checkpoint) []byte {
		opts, err := json.Marshal(ck.Options)
		if err != nil {
			f.Fatal(err)
		}
		return appendCheckpoint(nil, ck, opts)
	}
	for _, p := range [][]byte{
		encode(Checkpoint{}),
		encode(Checkpoint{Name: "s", Source: "move(a,b).\n", Epoch: 1, Facts: []wfs.FactRef{{Pred: "move", Args: []string{"a", "b"}}}}),
		encode(Checkpoint{Name: "näme日本", Source: "p(é).", Options: wfs.Options{Depth: 2}, Epoch: 300,
			WrittenAtUnixNano: 1760000000000000000, Facts: []wfs.FactRef{{Pred: "p", Args: []string{"é"}}}}),
		encode(Checkpoint{Name: "flags", Source: "flag.", Facts: []wfs.FactRef{{Pred: "flag"}, {Pred: "flag"}}}),
	} {
		for cut := len(p); cut >= 0; cut -= max(1, len(p)/4) {
			f.Add(p[:cut])
		}
	}
	f.Add([]byte(parentCheckpoint))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, opts, err := decodeCheckpoint(data)
		if err != nil || data[0] == '{' {
			return
		}
		if again := appendCheckpoint(nil, ck, opts); !bytes.Equal(again, data) {
			t.Fatalf("decoded %+v re-encodes to %x, want %x", ck, again, data)
		}
	})
}
