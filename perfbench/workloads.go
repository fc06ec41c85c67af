package main

import (
	"fmt"
	"math/rand"
	"sort"

	slicer "dynslice"
	"dynslice/internal/bench"
)

// Set-up modes: which part of Record a workload's set-up exercises.
const (
	modeBuild    = "build"    // cold Record: profile run, traced run, FP+OPT build, snapshot write
	modeSnapshot = "snapshot" // Record answered from a snapshot written by an untimed prep
	modeDeferred = "deferred" // Record with DeferGraphs: trace and checkpoints, no graphs
)

// Engine options shared by every workload: one closed-loop client on a
// 2-core box, so batches get exactly two workers.
const engineWorkers = 2

// trackCriteria is the number of slicing criteria each recording tracks;
// every workload's query stream draws from them.
const trackCriteria = 200

// workload is one benchmark workload: a program from internal/bench, the
// set-up mode that produces its recording, and the query stream run
// against it.
type workload struct {
	name    string
	program string // internal/bench workload name
	mode    string
	// refBackend answers the reference digests: a backend the planner
	// does not route this workload to.
	refBackend string
	setups     int // timed set-up repetitions; setup_s is their median
	cache      int // EngineOptions.CacheSize
	observe    bool
	// stream returns the seeded op generator over the tracked criteria.
	stream func(rng *rand.Rand, crit []int64, ref *workloadRefs) *stream
	// countOps is the stream prefix the traced run takes its counts from,
	// so that counts repeat exactly whatever the run's speed.
	countOps int
	// minOps is the fewest ops a run times, so that at least ten samples
	// lie beyond query_p90_ms.
	minOps int
}

var workloads = []*workload{
	{
		name: "build-twolf", program: "300.twolf", mode: modeBuild,
		refBackend: "FP", setups: 3, cache: -1,
		stream: batchStream, countOps: 25, minOps: 100,
	},
	{
		name: "explore-li", program: "130.li", mode: modeSnapshot,
		refBackend: "FP", setups: 41, cache: 0, observe: true,
		stream: exploreStream, countOps: 40, minOps: 100,
	},
	{
		name: "rare-gzip", program: "164.gzip", mode: modeDeferred,
		refBackend: "OPT", setups: 21, cache: 0,
		stream: rareStream, countOps: 24, minOps: 100,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) source() (bench.Workload, error) {
	bw, ok := bench.ByName(w.program)
	if !ok {
		return bench.Workload{}, fmt.Errorf("no program %q in internal/bench", w.program)
	}
	return bw, nil
}

// runOptions returns the Record options of one set-up. dir holds the
// trace; snapDir is the snapshot cache directory.
func (w *workload) runOptions(bw bench.Workload, dir, snapDir string) slicer.RunOptions {
	o := slicer.RunOptions{Input: bw.Input, TrackCriteria: trackCriteria, TraceDir: dir}
	switch w.mode {
	case modeBuild:
		o.Snapshot = slicer.SnapshotOptions{Dir: snapDir, Write: true}
	case modeSnapshot:
		o.Snapshot = slicer.SnapshotOptions{Dir: snapDir, Read: true}
	case modeDeferred:
		o.DeferGraphs = true
	}
	return o
}

func (w *workload) engineOptions() slicer.EngineOptions {
	return slicer.EngineOptions{Workers: engineWorkers, CacheSize: w.cache}
}

// stream generates a workload's ops. An op is one SliceAddr (one address)
// or one SliceAddrs batch. A run ends only on a unit boundary, so every
// run holds whole units of the same make-up.
type stream struct {
	next func() []int64
	unit int
}

// strata is the number of cost strata a pass deals from.
const strata = 8

// deal ranks the criteria by reference slice size, which predicts query
// cost well, cuts them into strata, and deals one pass: len(crit)/strata
// groups, each holding one criterion from every stratum. The seed decides
// which criteria share a group and the group order, so every group has
// the same mix of cheap and costly criteria on every seed.
func deal(rng *rand.Rand, crit []int64, ref *workloadRefs) [][]int64 {
	ranked := append([]int64(nil), crit...)
	sort.SliceStable(ranked, func(i, j int) bool {
		return ref.stmts(ranked[i]) > ref.stmts(ranked[j])
	})
	n := len(ranked) / strata
	pass := make([][]int64, n)
	for s := 0; s < strata; s++ {
		stratum := ranked[s*n : (s+1)*n]
		for g, k := range rng.Perm(n) {
			pass[g] = append(pass[g], stratum[k])
		}
	}
	for _, g := range pass {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	rng.Shuffle(n, func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	return pass
}

// singles cycles through one dealt pass, one criterion at a time. A
// criterion comes back only after every other one, long after the
// engine's 64-entry cache evicted it.
func singles(rng *rand.Rand, crit []int64, ref *workloadRefs) func() int64 {
	var order []int64
	for _, g := range deal(rng, crit, ref) {
		order = append(order, g...)
	}
	i := 0
	return func() int64 {
		a := order[i%len(order)]
		i++
		return a
	}
}

// batchStream sends each dealt group as one batch of 8, dealing a fresh
// pass when one runs out. The four costliest criteria share a stratum, so
// every pass has exactly four slow batches.
func batchStream(rng *rand.Rand, crit []int64, ref *workloadRefs) *stream {
	var pass [][]int64
	next := func() []int64 {
		if len(pass) == 0 {
			pass = deal(rng, crit, ref)
		}
		op := pass[0]
		pass = pass[1:]
		return op
	}
	return &stream{next: next, unit: len(crit) / strata}
}

// exploreStream models a user exploring a fault: each round asks one new
// criterion and then revisits four among the last 16 new ones, skewed
// toward the most recent. Revisits always hit the engine's 64-entry
// cache, so the hit rate is four in five on every seed.
func exploreStream(rng *rand.Rand, crit []int64, ref *workloadRefs) *stream {
	const (
		round  = 5
		window = 16
	)
	fresh := singles(rng, crit, ref)
	var recent []int64
	pos := 0
	next := func() []int64 {
		defer func() { pos++ }()
		if pos%round == 0 {
			a := fresh()
			recent = append(recent, a)
			if len(recent) > window {
				recent = recent[1:]
			}
			return []int64{a}
		}
		back := min(int(rng.ExpFloat64()*3), len(recent)-1)
		return []int64{recent[len(recent)-1-back]}
	}
	return &stream{next: next, unit: round * strata}
}

// rareStream asks distinct criteria, one at a time.
func rareStream(rng *rand.Rand, crit []int64, ref *workloadRefs) *stream {
	fresh := singles(rng, crit, ref)
	return &stream{next: func() []int64 { return []int64{fresh()} }, unit: strata}
}

// warmupOp is the untimed op run before timing: the criteria with the
// smallest reference slices, so it warms the query path cheaply and the
// same way on every seed.
func warmupOp(w *workload, crit []int64, ref *workloadRefs) []int64 {
	n := 1
	if w.mode == modeBuild {
		n = 8
	}
	ranked := append([]int64(nil), crit...)
	sort.SliceStable(ranked, func(i, j int) bool {
		return ref.stmts(ranked[i]) < ref.stmts(ranked[j])
	})
	return ranked[:n]
}
