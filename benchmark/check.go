package main

// The answer oracle: expected truth values computed from the structure
// the inputs were generated from, never from the program under test.

type truth string

const (
	tTrue      truth = "true"
	tFalse     truth = "false"
	tUndefined truth = "undefined"
)

func boolTruth(b bool) truth {
	if b {
		return tTrue
	}
	return tFalse
}

// chainWin is win(n_i) on a win-move chain n_0 → … → n_end whose last
// node has no move: a node wins iff its distance to the end is odd. With
// the edge cut → cut+1 retracted the chain ends at cut for every node up
// to it; nodes past the cut keep the original end l.
func chainWin(l, cut, i int, retracted bool) truth {
	end := l
	if retracted && i <= cut {
		end = cut
	}
	return boolTruth((end-i)%2 == 1)
}

// Stratified module: person i has a contract iff i%3==0 and is old iff
// i%3==1, so employed ⇔ i%3==0, seeker ⇔ i%3!=0, retired ⇔ i%3==1 (or
// made old by a mutation), benefits ⇔ seeker and not retired.
func stratTruth(pred string, i int, madeOld bool) truth {
	retired := i%3 == 1 || madeOld
	switch pred {
	case "employed":
		return boolTruth(i%3 == 0)
	case "seeker":
		return boolTruth(i%3 != 0)
	case "retired":
		return boolTruth(retired)
	case "benefits":
		return boolTruth(i%3 != 0 && !retired)
	}
	panic("stratTruth: unknown predicate " + pred)
}

// solveWinMove computes the well-founded model of
// "move(X,Y), not win(Y) -> win(X)" on a finite graph by retrograde
// analysis: a node with no move loses, a node with a move to a loser
// wins, a node whose every move reaches a winner loses, and what is left
// is drawn — exactly the atoms the well-founded semantics leaves
// undefined. Parallel edges count once per occurrence on both sides.
func solveWinMove(n int, edges [][2]int32) []truth {
	out := make([]int32, n) // undecided moves left per node
	predOff := make([]int32, n+1)
	for _, e := range edges {
		out[e[0]]++
		predOff[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
	}
	preds := make([]int32, len(edges))
	fill := append([]int32(nil), predOff[:n]...)
	for _, e := range edges {
		preds[fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	res := make([]truth, n)
	var queue []int32
	for i := 0; i < n; i++ {
		res[i] = tUndefined
		if out[i] == 0 {
			res[i] = tFalse
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		y := queue[0]
		queue = queue[1:]
		for _, x := range preds[predOff[y]:predOff[y+1]] {
			if res[x] != tUndefined {
				continue
			}
			if res[y] == tFalse {
				res[x] = tTrue
				queue = append(queue, x)
			} else if out[x]--; out[x] == 0 {
				res[x] = tFalse
				queue = append(queue, x)
			}
		}
	}
	return res
}

// Example 4 of the paper, per seed pair r(k,k,m), p(k,k): p holds along
// the whole infinite r-chain, so q is false everywhere, s(k) is false
// (its only support is an unfounded set) and t(k) is true; a constant
// with no seed pair has none of these.
func example4Truth(pred string, seeded bool) truth {
	switch pred {
	case "t", "pNotQ": // pNotQ: ? p(k,Y), not q(Y).
		return boolTruth(seeded)
	case "s":
		return tFalse
	}
	panic("example4Truth: unknown predicate " + pred)
}
