package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
)

// smokeOps is the op count of a smoke run; runs still end on a stream
// unit boundary.
const smokeOps = 5

// maxUnattributed is the coverage bound: child spans must cover at least
// 95% of their roots.
const maxUnattributed = 0.05

// setupCounts are the counts a set-up produces; no seed may change them.
var setupCounts = []string{
	"interp.steps", "interp.checkpoints", "trace.bytes", "trace.segments",
	"fp.label_pairs", "opt.label_pairs", "snapshot.bytes",
}

// queryCounts are the counts the traced stream prefix produces; they
// repeat exactly for one seed.
var queryCounts = []string{
	"plan.decisions", "plan.share.opt", "plan.share.reexec", "plan.share.other",
	"engine.hit_rate", "engine.lookups",
	"opt.instances", "opt.label_probes", "batch.instances", "batch.label_probes",
	"reexec.seg_scans", "reexec.seg_skips",
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSmoke runs every workload briefly, untraced and traced, and checks
// that each prints exactly the metrics BENCHMARK.json names, with their
// units, and that no op failed.
func runSmoke(root, dir, out string) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var bad []string
	for _, w := range workloads {
		r, err := untraced(w, filepath.Join(dir, w.name+"-e2e"), 1, 0, smokeOps)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		bad = append(bad, checkPrinted(w.name+" untraced", r, spec.EndToEnd)...)
		t, err := tracedRun(w, filepath.Join(dir, w.name+"-traced"), out, 1, smokeOps)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		bad = append(bad, checkPrinted(w.name+" traced", t, spec.PerLayer)...)
		fmt.Printf("%s: failed_share %d/%d untraced, %d/%d traced\n", w.name, r.Failed, r.Attempted, t.Failed, t.Attempted)
	}
	return verdict("smoke", bad)
}

// checkPrinted reports every way r's metrics differ from want, and any
// failed op.
func checkPrinted(what string, r *result, want []metricSpec) []string {
	var bad []string
	if r.Failed != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d of %d ops failed", what, r.Failed, r.Attempted))
	}
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: %s not printed", what, m.Name))
		case got.Unit != m.Unit:
			bad = append(bad, fmt.Sprintf("%s: %s printed in %q, want %q", what, m.Name, got.Unit, m.Unit))
		}
	}
	for name := range r.Metrics {
		if !named[name] {
			bad = append(bad, fmt.Sprintf("%s: %s printed but not in BENCHMARK.json", what, name))
		}
	}
	return bad
}

// runSelfcheck makes three traced runs per workload, two on one seed and
// one on another. The counts must repeat exactly on the same seed, the
// set-up counts on either seed, the stream must change with the seed,
// and the child spans must cover the roots.
func runSelfcheck(dir, out string) error {
	var bad []string
	for _, w := range workloads {
		var runs [3]*result
		for i, seed := range []int64{1, 1, 2} {
			r, err := tracedRun(w, filepath.Join(dir, fmt.Sprintf("%s-%d", w.name, i)), out, seed, w.countOps)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			runs[i] = r
			u := r.Metrics["bench.unattributed_share"].Value
			fmt.Printf("%s seed %d: unattributed %.4f, tracing overhead %.4f, failed %d/%d\n",
				w.name, seed, u, r.Metrics["bench.tracing_overhead"].Value, r.Failed, r.Attempted)
			if u > maxUnattributed {
				bad = append(bad, fmt.Sprintf("%s seed %d: child spans leave %.4f of the roots unattributed", w.name, seed, u))
			}
			if r.Failed != 0 {
				bad = append(bad, fmt.Sprintf("%s seed %d: %d ops failed", w.name, seed, r.Failed))
			}
		}
		for _, name := range append(append([]string(nil), setupCounts...), queryCounts...) {
			if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
				bad = append(bad, fmt.Sprintf("%s: %s is %v then %v on one seed", w.name, name, a, b))
			}
		}
		for _, name := range setupCounts {
			if a, c := runs[0].Metrics[name].Value, runs[2].Metrics[name].Value; a != c {
				bad = append(bad, fmt.Sprintf("%s: set-up count %s is %v on seed 1, %v on seed 2", w.name, name, a, c))
			}
		}
		if reflect.DeepEqual(runs[0].ops, runs[2].ops) {
			bad = append(bad, fmt.Sprintf("%s: seeds 1 and 2 ran the same stream", w.name))
		}
	}
	return verdict("selfcheck", bad)
}

func verdict(what string, bad []string) error {
	for _, b := range bad {
		fmt.Println("FAIL", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: %d problems", what, len(bad))
	}
	fmt.Println(what, "ok")
	return nil
}
