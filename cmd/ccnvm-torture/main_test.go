package main

import (
	"errors"
	"strings"
	"testing"
)

// TestNegativeCountsRefused: a negative matrix count is an error naming
// its flag — which main turns into exit 1 — instead of a run of the
// default matrix.
func TestNegativeCountsRefused(t *testing.T) {
	for _, name := range []string{"ops", "seeds", "crashpoints", "budget", "faultseeds", "reboots", "spares", "kv-compact", "parallel"} {
		t.Run(name, func(t *testing.T) {
			_, err := parseArgs([]string{"-" + name, "-3"})
			if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-"+name+" ") {
				t.Fatalf("-%s -3: got %v, want an error naming the flag", name, err)
			}
		})
	}
	if _, err := parseArgs([]string{"-ops", "0", "-seeds", "1", "-budget", "0"}); err != nil {
		t.Fatalf("zero and positive counts refused: %v", err)
	}
}
