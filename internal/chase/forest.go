package chase

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/atom"
)

// ForestNode is a node of the explicit guarded chase forest F+(P). As in
// the paper, distinct nodes may carry the same label (Example 6: S(0)
// labels infinitely many nodes).
type ForestNode struct {
	Atom     atom.AtomID
	Parent   int32 // -1 for roots
	Depth    int32
	Inst     int32 // position of the deriving instance in Result.Ground; -1 for roots
	Children []int32
}

// Forest is the materialized node-level view of a chase result, bounded by
// depth and node caps.
type Forest struct {
	Res       *Result
	Nodes     []ForestNode
	Roots     []int32
	Truncated bool // hit the node cap
}

// BuildForest materializes the chase forest up to the given depth (at most
// the chase's own depth bound) and node cap (0 = 1e6).
func (r *Result) BuildForest(maxDepth, maxNodes int) *Forest {
	if maxNodes <= 0 {
		maxNodes = 1_000_000
	}
	if maxDepth > r.Opts.MaxDepth {
		maxDepth = r.Opts.MaxDepth
	}
	f := &Forest{Res: r}
	var queue []int32
	for _, a := range r.DB {
		id := int32(len(f.Nodes))
		f.Nodes = append(f.Nodes, ForestNode{Atom: a, Parent: -1, Inst: -1})
		f.Roots = append(f.Roots, id)
		queue = append(queue, id)
	}
	// The same atom labels many forest nodes (Example 6: unboundedly
	// many), so group the instances by guard once.
	byGuard := make(map[int32][]int32)
	for _, rec := range r.Instances {
		g := r.Body[r.Ground[rec].Off]
		byGuard[g] = append(byGuard[g], rec)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := f.Nodes[id]
		if int(n.Depth) >= maxDepth {
			continue
		}
		for _, ii := range byGuard[r.Local(n.Atom)] {
			if len(f.Nodes) >= maxNodes {
				f.Truncated = true
				return f
			}
			child := int32(len(f.Nodes))
			f.Nodes = append(f.Nodes, ForestNode{
				Atom:   r.Universe[r.Ground[ii].Head],
				Parent: id,
				Depth:  n.Depth + 1,
				Inst:   ii,
			})
			f.Nodes[id].Children = append(f.Nodes[id].Children, child)
			queue = append(queue, child)
		}
	}
	return f
}

// Dump renders the forest as an indented tree, children ordered by label
// for determinism.
func (f *Forest) Dump() string {
	st := f.Res.Prog.Store
	var b strings.Builder
	var rec func(id int32, indent int)
	rec = func(id int32, indent int) {
		n := &f.Nodes[id]
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", indent), st.String(n.Atom))
		if n.Inst >= 0 {
			fmt.Fprintf(&b, "   [rule %d]", f.Res.Ground[n.Inst].Rule)
		}
		b.WriteByte('\n')
		kids := append([]int32(nil), n.Children...)
		sort.Slice(kids, func(i, j int) bool {
			return st.String(f.Nodes[kids[i]].Atom) < st.String(f.Nodes[kids[j]].Atom)
		})
		for _, c := range kids {
			rec(c, indent+1)
		}
	}
	roots := append([]int32(nil), f.Roots...)
	sort.Slice(roots, func(i, j int) bool {
		return st.String(f.Nodes[roots[i]].Atom) < st.String(f.Nodes[roots[j]].Atom)
	})
	for _, r := range roots {
		rec(r, 0)
	}
	return b.String()
}
