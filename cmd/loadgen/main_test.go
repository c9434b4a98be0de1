package main

import "testing"

// TestBenchSafe pins scenario-name sanitization for benchmark names.
func TestBenchSafe(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"mixed", "mixed"},
		{"flash-crowd_2", "flash-crowd_2"},
		{"a=constant(rate=1)", "aconstantrate1"},
		{"===", "custom"},
		{"", "custom"},
		{"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "aaaaaaaaaaaaaaaaaaaaaaaa"},
	} {
		if got := benchSafe(tc.in); got != tc.want {
			t.Errorf("benchSafe(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
