// Command perfbench is dynslice's end-to-end benchmark: Record, then
// snapshot load or build, then plan, then query, through the public
// façade, with every answer checked. See README.md; run it through
// run.py, which builds it from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// result is one run's outcome. Its JSON form is the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string  // metric names in the order added
	notes []string  // human-readable lines printed before the JSON
	ops   [][]int64 // the ops a traced run ran
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, one line per metric, and the JSON line last.
func (r *result) print() error {
	r.Correct = r.Failed == 0
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	var (
		root    = flag.String("root", ".", "repository root")
		work    = flag.String("work", os.TempDir(), "directory for per-run traces and snapshots")
		out     = flag.String("out", ".", "directory for span dumps")
		name    = flag.String("workload", "", "workload to run: build-twolf, explore-li or rare-gzip")
		seed    = flag.Int64("seed", 1, "seed of the query stream")
		seconds = flag.Float64("seconds", 10, "op phase length in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		smoke   = flag.Bool("smoke", false, "run every workload briefly, traced and untraced, and check the output")
		selfchk = flag.Bool("selfcheck", false, "check count determinism and span coverage on every workload")
		genrefs = flag.Bool("genrefs", false, "regenerate refs.json, the reference answers")
	)
	flag.Parse()
	if err := run(*root, *work, *out, *name, *seed, *seconds, *traced, *smoke, *selfchk, *genrefs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, work, out, name string, seed int64, seconds float64, traced int, smoke, selfchk, genrefs bool) error {
	// Every run gets its own scratch directory, removed at the end.
	dir, err := os.MkdirTemp(work, "run")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	switch {
	case genrefs:
		return genRefs(root+"/perfbench", dir)
	case smoke:
		return runSmoke(root, dir, out)
	case selfchk:
		return runSelfcheck(dir, out)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	var r *result
	if traced == 1 {
		r, err = tracedRun(w, dir, out, seed, w.countOps)
	} else {
		r, err = untraced(w, dir, seed, seconds, w.minOps)
	}
	if err != nil {
		return err
	}
	return r.print()
}
