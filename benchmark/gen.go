package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bench"
)

// The program texts come from repro/internal/bench, the generators the
// repository's other measurements use; their structure is closed-form in
// the sizes, which is all the oracle in check.go needs. Only the random
// game is rendered here, from the edge list the oracle solves.

// chainsKB is bench.UpdateFamily(k, l): k disjoint win-move chains
// n<c>_0 → … → n<c>_l. Certified depth 1, every answer exact.
type chainsKB struct{ k, l int }

func (kb chainsKB) program() string { return bench.UpdateFamily(kb.k, kb.l) }

func (kb chainsKB) facts() int { return kb.k * kb.l }

// cut is the tail of the mid-chain edge the writers toggle.
func (kb chainsKB) cut() int { return kb.l / 2 }

func node(c, i int) string { return fmt.Sprintf("n%d_%d", c, i) }

// mixedKB concatenates three modules over disjoint predicates:
// bench.StratifiedFamily over persons p<i>, a random win-move graph over
// g<i> (a large hard SCC and genuinely undefined atoms), and
// bench.ReachChain over v<i>.
type mixedKB struct {
	persons  int
	nodes    int
	edges    [][2]int32
	chain    int
	winTruth []truth // oracle: WFS of the random game
}

func newMixedKB(persons, nodes, edges, chain int, seed int64) *mixedKB {
	rng := rand.New(rand.NewSource(seed))
	kb := &mixedKB{persons: persons, nodes: nodes, chain: chain, edges: make([][2]int32, edges)}
	for i := range kb.edges {
		kb.edges[i] = [2]int32{int32(rng.Intn(nodes)), int32(rng.Intn(nodes))}
	}
	kb.winTruth = solveWinMove(nodes, kb.edges)
	return kb
}

func (kb *mixedKB) program() string {
	var b strings.Builder
	b.Grow((kb.persons*2 + len(kb.edges) + kb.chain) * 20)
	b.WriteString(bench.StratifiedFamily(kb.persons))
	b.WriteString(bench.WinMoveRule)
	for _, e := range kb.edges {
		fmt.Fprintf(&b, "move(g%d, g%d).\n", e[0], e[1])
	}
	b.WriteString(bench.ReachChain(kb.chain))
	return b.String()
}

func (kb *mixedKB) facts() int {
	// person for all, contract for i%3==0, oldAge for i%3==1, start(v0).
	return kb.persons + (kb.persons+2)/3 + (kb.persons+1)/3 + len(kb.edges) + 1 + kb.chain
}

// ontoKB is the paper's Example 4 (bench.Example4: its five rules and its
// one seed pair) with n more seed pairs. The first rule is existential
// and recursive, so the chase is infinite, no depth can be certified, and
// every answer climbs the adaptive ladder and is inexact.
type ontoKB struct{ n int }

func (kb ontoKB) program() string {
	var b strings.Builder
	b.Grow(len(bench.Example4) + kb.n*32)
	b.WriteString(bench.Example4)
	for i := 0; i < kb.n; i++ {
		fmt.Fprintf(&b, "r(k%d,k%d,m%d). p(k%d,k%d).\n", i, i, i, i, i)
	}
	return b.String()
}

func (kb ontoKB) facts() int { return 2*kb.n + 2 }
