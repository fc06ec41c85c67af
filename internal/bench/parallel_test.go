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
	if want := len(procSweep()); len(recs) != want {
		t.Fatalf("want one record per GOMAXPROCS setting (%d), got %d", want, len(recs))
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if seen[r.GOMAXPROCS] {
			t.Errorf("duplicate GOMAXPROCS row %d", r.GOMAXPROCS)
		}
		seen[r.GOMAXPROCS] = true
		if !r.IdenticalSlices {
			t.Errorf("GOMAXPROCS=%d: batched slices diverged from sequential", r.GOMAXPROCS)
		}
		if r.NCriteria != 25 {
			t.Errorf("want 25 criteria, got %d", r.NCriteria)
		}
		if r.Speedup <= 0 || r.OPTBatchSpeed <= 0 || r.BuildSpeedup <= 0 {
			t.Errorf("speedups must be positive: %+v", r)
		}
		if r.Speedup < 1.5 {
			t.Errorf("GOMAXPROCS=%d: batched+parallel speedup = %.2fx, want >= 1.5x", r.GOMAXPROCS, r.Speedup)
		}
	}
	if !seen[1] || !seen[4] {
		t.Errorf("sweep must include GOMAXPROCS 1 and 4, got %v", seen)
	}
}
