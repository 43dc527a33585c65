package main

import (
	"fmt"
	"io"
	"slices"
)

// printTable prints every metric by name with its unit, for a person.
func printTable(w io.Writer, workload string, m map[string]metric, samples map[string]int) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "== %s\n", workload)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprintf(w, "samples: %v\n", samples)
}
