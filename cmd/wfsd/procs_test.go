package main

import "testing"

// TestServerProcs: wfsd keeps a second P unless the environment sets a
// GOMAXPROCS the runtime honours, in which case that setting stands.
func TestServerProcs(t *testing.T) {
	for _, tc := range []struct {
		env           string
		current, want int
	}{
		{"", 1, 2},   // one CPU, nothing set: raise
		{"", 2, 2},   // already two
		{"", 8, 8},   // a multi-core host is left alone
		{"1", 1, 1},  // an explicit 1 wins
		{"3", 3, 3},  // any explicit value wins
		{"0", 1, 2},  // the runtime ignores 0 ...
		{"-2", 1, 2}, // ... a negative value,
		{"+2", 1, 2}, // a sign,
		{"two", 1, 2},
		{" 2", 1, 2},
		{"4294967296", 1, 2}, // and a value beyond an int32
	} {
		if got := serverProcs(tc.env, tc.current); got != tc.want {
			t.Errorf("serverProcs(%q, %d) = %d, want %d", tc.env, tc.current, got, tc.want)
		}
	}
}
