package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// writeArtifact writes one synthetic BENCH_*.json file: workloads
// w0..w9, each record built by rec from its index, a nil record leaving
// the workload out.
func writeArtifact(t *testing.T, dir, file string, rec func(i int) map[string]any) {
	t.Helper()
	var recs []map[string]any
	for i := range 10 {
		if r := rec(i); r != nil {
			r["name"] = fmt.Sprintf("w%d", i)
			recs = append(recs, r)
		}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// snapshotRec is a BENCH_snapshot.json record with the given file size.
func snapshotRec(fileBytes float64) map[string]any {
	return map[string]any{"load_ms": 4.0, "file_bytes": fileBytes}
}

func TestCompare(t *testing.T) {
	const snap = "BENCH_snapshot.json"
	const fileBytes = snap + " file_bytes"
	steady := func(int) map[string]any { return snapshotRec(1000) }
	cases := []struct {
		name          string
		base, cur     map[string]func(i int) map[string]any // file -> records
		wantRegressed []string
		wantCompared  []string
	}{
		{
			name: "25% rise on a noise-1 row fails",
			base: map[string]func(int) map[string]any{snap: steady},
			cur: map[string]func(int) map[string]any{snap: func(int) map[string]any {
				return snapshotRec(1250)
			}},
			wantRegressed: []string{fileBytes},
			wantCompared:  []string{snap + " load_ms", fileBytes},
		},
		{
			name: "100% rise on one of ten workloads passes",
			base: map[string]func(int) map[string]any{snap: steady},
			cur: map[string]func(int) map[string]any{snap: func(i int) map[string]any {
				if i == 3 {
					return snapshotRec(2000)
				}
				return snapshotRec(1000)
			}},
			wantCompared: []string{snap + " load_ms", fileBytes},
		},
		{
			name: "100% rise on six of ten workloads fails",
			base: map[string]func(int) map[string]any{snap: steady},
			cur: map[string]func(int) map[string]any{snap: func(i int) map[string]any {
				if i < 6 {
					return snapshotRec(2000)
				}
				return snapshotRec(1000)
			}},
			wantRegressed: []string{fileBytes},
			wantCompared:  []string{snap + " load_ms", fileBytes},
		},
		{
			name: "rise on a higher-is-better row passes",
			base: map[string]func(int) map[string]any{"BENCH_parallel.json": func(int) map[string]any {
				return map[string]any{"lp_batch_speedup": 10.0}
			}},
			cur: map[string]func(int) map[string]any{"BENCH_parallel.json": func(int) map[string]any {
				return map[string]any{"lp_batch_speedup": 20.0}
			}},
			wantCompared: []string{"BENCH_parallel.json lp_batch_speedup"},
		},
		{
			name: "fall on a higher-is-better row fails",
			base: map[string]func(int) map[string]any{"BENCH_parallel.json": func(int) map[string]any {
				return map[string]any{"lp_batch_speedup": 10.0}
			}},
			cur: map[string]func(int) map[string]any{"BENCH_parallel.json": func(int) map[string]any {
				return map[string]any{"lp_batch_speedup": 6.0}
			}},
			wantRegressed: []string{"BENCH_parallel.json lp_batch_speedup"},
			wantCompared:  []string{"BENCH_parallel.json lp_batch_speedup"},
		},
		{
			name: "missing file is skipped",
			base: map[string]func(int) map[string]any{snap: steady, "BENCH_planner.json": func(int) map[string]any {
				return map[string]any{"reexec_seg_scans": 3.0}
			}},
			cur:          map[string]func(int) map[string]any{snap: steady},
			wantCompared: []string{snap + " load_ms", fileBytes},
		},
		{
			name: "missing workload is skipped",
			base: map[string]func(int) map[string]any{snap: steady},
			cur: map[string]func(int) map[string]any{snap: func(i int) map[string]any {
				if i < 6 {
					return nil
				}
				return snapshotRec(1000)
			}},
			wantCompared: []string{snap + " load_ms", fileBytes},
		},
		{
			name: "missing field is skipped",
			base: map[string]func(int) map[string]any{snap: steady},
			cur: map[string]func(int) map[string]any{snap: func(int) map[string]any {
				return map[string]any{"load_ms": 4.0}
			}},
			wantCompared: []string{snap + " load_ms"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, cur := t.TempDir(), t.TempDir()
			for file, rec := range c.base {
				writeArtifact(t, base, file, rec)
			}
			for file, rec := range c.cur {
				writeArtifact(t, cur, file, rec)
			}
			regressed, compared := compare(io.Discard, base, cur, 0.20)
			if !slices.Equal(regressed, c.wantRegressed) {
				t.Errorf("regressed = %q, want %q", regressed, c.wantRegressed)
			}
			if !slices.Equal(compared, c.wantCompared) {
				t.Errorf("compared = %q, want %q", compared, c.wantCompared)
			}
		})
	}
}
