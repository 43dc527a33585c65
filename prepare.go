package wfs

import (
	"sync/atomic"

	"repro/internal/atom"
	"repro/internal/parser"
	"repro/internal/program"
)

// Query is a prepared NBCQ: parsed and normalized once, reusable across
// any number of snapshots and goroutines. Preparation pays the parse and
// normalization cost up front; compilation (resolving predicate and
// constant names to interned IDs) is cached lock-free inside the Query
// once every name it mentions is known, which is the common case on a
// hot serving path.
type Query struct {
	text string // canonical surface form (NormalizeQuery)
	ast  *parser.Query

	// compiled caches the last fully resolved compilation. A single slot
	// suffices: a serving process answers against one System at a time,
	// and a miss only costs a recompile.
	compiled atomic.Pointer[compiledQuery]
}

// compiledQuery pins a compiled form to the System store whose IDs it
// references. IDs never change meaning, so it is valid against every
// snapshot and model of that System.
type compiledQuery struct {
	store *atom.Store
	cq    *program.Query
}

// Prepare parses an NBCQ (with or without the leading '?') into a
// reusable Query. The same Query may be answered concurrently against any
// snapshot, including snapshots of different systems.
func Prepare(query string) (*Query, error) {
	pq, err := parser.ParseQueryString(query)
	if err != nil {
		return nil, err
	}
	return &Query{text: parser.FormatQuery(pq), ast: pq}, nil
}

// String returns the canonical surface form of the query (the same string
// NormalizeQuery produces), suitable as a cache key.
func (q *Query) String() string { return q.text }
