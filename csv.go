package wfs

import (
	"encoding/csv"
	"fmt"
	"io"
)

// LoadCSV bulk-loads rows of a CSV stream as facts of the given predicate:
// each record r1,…,rn becomes pred(r1,…,rn), with every field a constant.
// All records must have the predicate's arity (fixed by the first record
// if the predicate is new). Returns the number of records read.
//
// The whole stream is applied as one delta: a single epoch bump for the
// load, with the cached evaluation state rebased onto the appended facts
// rather than discarded. A malformed stream (CSV syntax error, ragged or
// arity-violating record) rejects the entire load — the database is left
// untouched, and no epoch bump happens. An empty stream is a no-op.
func (s *System) LoadCSV(pred string, r io.Reader) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.FieldsPerRecord = -1 // we do our own arity check, with a better message
	n := 0
	arity := -1
	var specs []factSpec
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, fmt.Errorf("wfs: csv for %s: %w", pred, err)
		}
		if arity < 0 {
			arity = len(rec)
			// Arity-check against an existing predicate up front so a
			// schema violation names the declared arity, not the first
			// record — but do NOT intern a new predicate yet: interning
			// fixes its arity permanently, and a later record may still
			// reject the whole (atomic) load. applyLocked interns after
			// the full stream has validated.
			if p, ok := s.store.LookupPred(pred); ok {
				if got := s.store.PredArity(p); got != arity {
					return n, fmt.Errorf("wfs: csv for %s: record 1 has %d fields, predicate has arity %d",
						pred, arity, got)
				}
			}
		} else if len(rec) != arity {
			return n, fmt.Errorf("wfs: csv for %s: record %d has %d fields, want %d",
				pred, n+1, len(rec), arity)
		}
		specs = append(specs, factSpec{pred: pred, args: rec})
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return n, s.applyLocked(&Delta{adds: specs})
}
