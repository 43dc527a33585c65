package core

import (
	"math/big"

	"repro/internal/atom"
	"repro/internal/program"
)

// Delta computes the Proposition 12 bound
//
//	δ = 2 · |R| · (2w)^w · 2^(|R| · (2w)^w)
//
// for a schema with numPreds relation names and maximum arity maxArity.
// If an NBCQ with n literals holds in the well-founded model, some
// homomorphism matches it within depth n·δ of the chase forest. The value
// is astronomically large for all but degenerate schemas (that is the
// point of exposing it: experiment E8 contrasts it with the tiny depths at
// which real programs stabilize), so it is returned as a big.Int.
func Delta(numPreds, maxArity int) *big.Int {
	r := big.NewInt(int64(numPreds))
	if maxArity < 1 {
		maxArity = 1
	}
	w := int64(maxArity)
	// (2w)^w
	tw := new(big.Int).Exp(big.NewInt(2*w), big.NewInt(w), nil)
	// |R| · (2w)^w
	exp := new(big.Int).Mul(r, tw)
	// 2^(|R|·(2w)^w); cap the exponent to keep this total even for
	// adversarial schemas — beyond 1<<20 bits the magnitude is the answer.
	const maxBits = 1 << 20
	var pow *big.Int
	if exp.IsInt64() && exp.Int64() <= maxBits {
		pow = new(big.Int).Lsh(big.NewInt(1), uint(exp.Int64()))
	} else {
		pow = new(big.Int).Lsh(big.NewInt(1), maxBits) // lower bound; already unusable
	}
	d := new(big.Int).Mul(big.NewInt(2), r)
	d.Mul(d, tw)
	d.Mul(d, pow)
	return d
}

// DeltaForSchema computes δ from an atom store's interned schema.
func DeltaForSchema(st *atom.Store) *big.Int {
	return Delta(st.NumPreds(), st.MaxArity())
}

// QueryDepthBound returns the Proposition 12 sufficient chase depth n·δ
// for answering query q against the schema of st.
func QueryDepthBound(q *program.Query, st *atom.Store) *big.Int {
	n := int64(len(q.Pos) + len(q.Neg))
	return new(big.Int).Mul(big.NewInt(n), DeltaForSchema(st))
}
