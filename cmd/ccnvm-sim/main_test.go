package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/sim"
)

// TestRemovedFlagsRejected: the simulator runs the paper's faultless
// machine and media faults have one front end, the torture harness, so
// the fault, spare and scrub flags are usage errors.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-fault-seed", "1"}, {"-fault-torn"}, {"-fault-adr", "4"}, {"-fault-weak", "5"},
		{"-fault-stuck", "2"}, {"-spares", "8"}, {"-scrub-ops", "100"},
	} {
		if err := run(args, new(bytes.Buffer)); !errors.Is(err, errUsage) {
			t.Errorf("run %v = %v, want a usage error", args, err)
		}
	}
}

// TestJSONMatchesRunBenchmark: a one-design -json run is one
// sim.Result object, the same one sim.RunBenchmark returns for the
// same workload, seed and N/M.
func TestJSONMatchesRunBenchmark(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-design", design.CCNVM, "-benchmark", "milc", "-ops", "4000", "-seed", "3",
		"-n", "8", "-m", "32", "-json"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	dec := json.NewDecoder(&out)
	dec.DisallowUnknownFields()
	var got sim.Result
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, err := sim.RunBenchmark(design.CCNVM, "milc", 4000, 3,
		sim.Config{Params: engine.Params{UpdateLimit: 8, QueueEntries: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("-json result differs from sim.RunBenchmark:\n got %+v\nwant %+v", got, want)
	}
}
