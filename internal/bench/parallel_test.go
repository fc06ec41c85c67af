package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunParallelSmoke runs the parallel experiment end to end on one
// workload and checks the JSON it emits.
func TestRunParallelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel experiment is slow; run without -short")
	}
	w, ok := ByName("164.gzip")
	if !ok {
		t.Fatal("workload 164.gzip missing")
	}
	out := filepath.Join(t.TempDir(), "BENCH_parallel.json")
	var buf bytes.Buffer
	if err := RunParallel(&buf, []Workload{w}, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var recs []ParallelBench
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want one record per workload, got %d", len(recs))
	}
	r := recs[0]
	if !r.IdenticalSlices {
		t.Error("batched slices diverged from sequential")
	}
	if r.NCriteria != 25 {
		t.Errorf("want 25 criteria, got %d", r.NCriteria)
	}
	if r.LPBatchSpeed < 1.5 {
		t.Errorf("LP batch speedup = %.2fx, want >= 1.5x", r.LPBatchSpeed)
	}
	if r.OPTBatchSpeed <= 0 {
		t.Errorf("OPT batch speedup must be positive: %+v", r)
	}
}
