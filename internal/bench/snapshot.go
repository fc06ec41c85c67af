package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dynslice/internal/slicing/snapshot"
)

// SnapshotBench is one workload's record in BENCH_snapshot.json: the cost
// of getting queryable FP+OPT graphs by trace-replay construction versus
// loading the persistent graph image, plus the image's footprint on disk
// against the graphs' resident bytes.
type SnapshotBench struct {
	Name      string `json:"name"`
	NCriteria int    `json:"n_criteria"`

	BuildMs float64 `json:"build_ms"` // trace replay -> FP+OPT graphs (best of reps)
	WriteMs float64 `json:"write_ms"` // serialize + atomic rename
	LoadMs  float64 `json:"load_ms"`  // single read -> queryable graphs (best of reps)
	// SnapshotLoadSpeedup is BuildMs over LoadMs for the same pair of
	// graphs, the two paths timed in one run, which RunSnapshot's floor
	// checks.
	SnapshotLoadSpeedup float64 `json:"snapshot_load_speedup"`

	FileBytes     int64   `json:"file_bytes"`     // .dysnap size on disk
	ResidentBytes int64   `json:"resident_bytes"` // FP+OPT in-memory accounting
	BytesRatio    float64 `json:"bytes_ratio"`    // file / resident

	IdenticalSlices bool `json:"identical_slices"`
}

const snapshotReps = 3

// minLoadSpeedup is the gate RunSnapshot enforces per workload: loading
// the image must beat rebuilding from the trace by at least this factor,
// or the snapshot has stopped paying for its complexity.
const minLoadSpeedup = 5.0

// RunSnapshot measures the persistent-snapshot path on every workload and
// writes per-workload records to outPath (cmd/experiments -exp snapshot).
// It hard-fails if any loaded graph answers a criterion differently from
// the resident graph it was saved from, or if the load speedup falls
// below minLoadSpeedup.
func RunSnapshot(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Snapshot: single-read graph images vs trace-replay build",
		fmt.Sprintf("%-12s %10s %10s %10s %9s %11s %11s %7s\n",
			"Program", "build(ms)", "write(ms)", "load(ms)", "speedup", "file", "resident", "f/r"))
	var out []SnapshotBench
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithFP: true, WithOPT: true})
		if err != nil {
			return err
		}
		sb, err := measureSnapshot(res)
		res.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10.3f %10.3f %10.3f %8.1fx %10dB %10dB %6.2fx\n",
			wl.Name, sb.BuildMs, sb.WriteMs, sb.LoadMs, sb.SnapshotLoadSpeedup,
			sb.FileBytes, sb.ResidentBytes, sb.BytesRatio)
		if !sb.IdenticalSlices {
			return fmt.Errorf("snapshot %s: loaded graphs answered differently from the resident graphs", wl.Name)
		}
		if sb.SnapshotLoadSpeedup < minLoadSpeedup {
			return fmt.Errorf("snapshot %s: load speedup %.2fx below the %.0fx gate",
				wl.Name, sb.SnapshotLoadSpeedup, minLoadSpeedup)
		}
		out = append(out, sb)
	}
	return writeArtifact(w, outPath, out)
}

func measureSnapshot(res *Result) (SnapshotBench, error) {
	sb := SnapshotBench{Name: res.W.Name, NCriteria: len(res.Crit)}

	hot, cuts, err := reprofile(res)
	if err != nil {
		return sb, err
	}

	// Cold build cost: trace replay into fresh FP+OPT graphs, best of
	// reps — the work a cache hit skips. The harness's own res.FP/res.OPT
	// stay the reference graphs for the identity check.
	buildTime := time.Duration(1 << 62)
	for rep := 0; rep < snapshotReps; rep++ {
		t0 := time.Now()
		g := NewFPGraph(res.P)
		if err := replayFile(res, g); err != nil {
			return sb, err
		}
		og := NewOPTGraph(res.P, hot, cuts)
		if err := replayFile(res, og); err != nil {
			return sb, err
		}
		buildTime = min(buildTime, time.Since(t0))
	}

	dir, err := os.MkdirTemp("", "dynslice-snap")
	if err != nil {
		return sb, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.dysnap")
	var key snapshot.Key
	img := &snapshot.Image{
		Output: res.RunInfo.Output, Steps: res.RunInfo.Steps, Return: res.RunInfo.ReturnValue,
		FP: res.FP, OPT: res.OPT,
	}
	t0 := time.Now()
	n, err := snapshot.Write(path, key, img)
	if err != nil {
		return sb, err
	}
	sb.WriteMs = ms(time.Since(t0))
	sb.FileBytes = n
	sb.ResidentBytes = res.FP.ResidentBytes() + res.OPT.ResidentBytes()
	if sb.ResidentBytes > 0 {
		sb.BytesRatio = float64(sb.FileBytes) / float64(sb.ResidentBytes)
	}

	// Warm load cost: one sequential read into queryable graphs.
	loadTime := time.Duration(1 << 62)
	var loaded *snapshot.Image
	for rep := 0; rep < snapshotReps; rep++ {
		t0 := time.Now()
		loaded, err = snapshot.Read(path, res.P, key)
		if err != nil {
			return sb, err
		}
		loadTime = min(loadTime, time.Since(t0))
	}
	sb.BuildMs = ms(buildTime)
	sb.LoadMs = ms(loadTime)
	if loadTime > 0 {
		sb.SnapshotLoadSpeedup = float64(buildTime) / float64(loadTime)
	}

	// Slice identity: every criterion, both backends, loaded vs resident.
	sb.IdenticalSlices = true
	wantFP, err := sliceLoop(res.FP, res.Crit)
	if err != nil {
		return sb, err
	}
	gotFP, err := sliceLoop(loaded.FP, res.Crit)
	if err != nil {
		return sb, err
	}
	wantOPT, err := sliceLoop(res.OPT, res.Crit)
	if err != nil {
		return sb, err
	}
	gotOPT, err := sliceLoop(loaded.OPT, res.Crit)
	if err != nil {
		return sb, err
	}
	for i := range res.Crit {
		if !wantFP[i].Equal(gotFP[i]) || !wantOPT[i].Equal(gotOPT[i]) {
			sb.IdenticalSlices = false
		}
	}
	return sb, nil
}
