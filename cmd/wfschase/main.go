// wfschase dumps the bounded guarded chase forest F+(P) of a program
// (paper §2.5): the node tree, per-atom depths/levels, and the extracted
// ground rule instances.
//
// Usage:
//
//	wfschase [-depth N] [-max-nodes N] [-instances] file.dlg
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/program"
	"repro/internal/term"
)

func main() {
	var (
		depth     = flag.Int("depth", 4, "chase depth bound")
		maxNodes  = flag.Int("max-nodes", 500, "forest node cap for the tree dump")
		instances = flag.Bool("instances", false, "print ground rule instances")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wfschase [flags] program.dlg")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(string(src), st)
	if err != nil {
		fatal(err)
	}
	res := chase.Run(prog, db, chase.Options{MaxDepth: *depth, MaxAtoms: 4_000_000})
	fmt.Println("chase:", res.ComputeStats())

	forest := res.BuildForest(*depth, *maxNodes)
	fmt.Printf("forest (%d nodes%s):\n", len(forest.Nodes), truncNote(forest.Truncated))
	fmt.Print(forest.Dump())

	if *instances {
		fmt.Println("ground instances:")
		for _, rec := range res.Instances {
			in := res.Ground[rec]
			var parts []string
			for k := in.Off; k < in.End; k++ {
				lit := st.String(res.Universe[res.Body[k]])
				if k >= in.Neg {
					lit = "not " + lit
				}
				parts = append(parts, lit)
			}
			fmt.Printf("  %s -> %s\n", strings.Join(parts, ", "), st.String(res.Head(rec)))
		}
	}
}

func truncNote(t bool) string {
	if t {
		return ", truncated"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfschase:", err)
	os.Exit(1)
}
