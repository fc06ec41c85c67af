package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/opt"
)

// MemoryAlg is one algorithm's label storage: what the labels of the
// graph built in the delta-varint block layout actually occupy, against
// the flat-pair size model — 16 bytes per (Td, Tu) pair, plus 4 for FP's
// aux column, what a flat slice of pairs spends.
type MemoryAlg struct {
	LabelPairs int64 `json:"label_pairs"`

	FlatLabelBytes    int64   `json:"flat_label_bytes"` // the flat-pair model
	CompactLabelBytes int64   `json:"compact_label_bytes"`
	LabelRatio        float64 `json:"label_ratio"` // flat model / compact, the headline

	CompactResidentBytes int64   `json:"compact_resident_bytes"` // labels + edge/slot tables
	CompactBytesPerDep   float64 `json:"compact_bytes_per_dep"`

	CompactHeapMB  float64 `json:"compact_heap_mb"` // live heap after build, a peak-RSS proxy
	CompactBuildMs float64 `json:"compact_build_ms"`

	IdenticalSlices bool `json:"identical_slices"` // every criterion's slice equals LP's
}

// MemoryBench is one workload's record in BENCH_memory.json.
type MemoryBench struct {
	Name      string    `json:"name"`
	NCriteria int       `json:"n_criteria"`
	FP        MemoryAlg `json:"fp"`
	OPT       MemoryAlg `json:"opt"`
}

const memoryReps = 3

// Bytes per label pair in the flat layout: a (Td, Tu) pair of int64s,
// and FP's int32 producing-statement column.
const (
	flatPairBytes = 16
	flatAuxBytes  = 4
)

// RunMemory measures the compact dependence storage of FP and OPT on
// every workload and writes per-workload records to outPath
// (cmd/experiments -exp memory). It fails if OPT's compact label bytes
// exceed half the flat-pair model, or if any slice differs from LP's,
// which stores no labels.
func RunMemory(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Memory layout: delta-varint label blocks vs the flat-pair model",
		fmt.Sprintf("%-12s %12s %12s %7s %9s %9s %12s %12s %7s\n",
			"Program", "fp-flat", "fp-compact", "fp-x", "B/dep", "opt-B/dep", "opt-flat", "opt-compact", "opt-x"))
	var out []MemoryBench
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithLP: true})
		if err != nil {
			return err
		}
		mb, err := measureMemory(res)
		res.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %11dB %11dB %6.2fx %8.2fB %8.2fB %11dB %11dB %6.2fx\n",
			wl.Name, mb.FP.FlatLabelBytes, mb.FP.CompactLabelBytes, mb.FP.LabelRatio,
			mb.FP.CompactBytesPerDep, mb.OPT.CompactBytesPerDep,
			mb.OPT.FlatLabelBytes, mb.OPT.CompactLabelBytes, mb.OPT.LabelRatio)
		for _, alg := range []struct {
			name string
			m    *MemoryAlg
		}{{"fp", &mb.FP}, {"opt", &mb.OPT}} {
			if !alg.m.IdenticalSlices {
				return fmt.Errorf("memory %s: %s slices differ from LP's", wl.Name, alg.name)
			}
		}
		if float64(mb.OPT.CompactLabelBytes) > 0.5*float64(mb.OPT.FlatLabelBytes) {
			return fmt.Errorf("memory %s: opt compact label bytes %d > 0.5x flat model %d",
				wl.Name, mb.OPT.CompactLabelBytes, mb.OPT.FlatLabelBytes)
		}
		out = append(out, mb)
	}
	return writeArtifact(w, outPath, out)
}

// graphStats is the accounting surface both graph types expose.
type graphStats interface {
	slicing.Slicer
	LabelPairs() int64
	LabelBytes() int64
	ResidentBytes() int64
}

func measureMemory(res *Result) (MemoryBench, error) {
	mb := MemoryBench{Name: res.W.Name, NCriteria: len(res.Crit)}

	hot, cuts, err := reprofile(res)
	if err != nil {
		return mb, err
	}
	crits := make([]slicing.Criterion, len(res.Crit))
	for i, a := range res.Crit {
		crits[i] = slicing.AddrCriterion(a)
	}
	want, _, err := res.LP.SliceAll(crits)
	if err != nil {
		return mb, err
	}

	buildFP := func() (graphStats, error) {
		g := fp.NewGraph(res.P)
		return g, replayFile(res, g)
	}
	buildOPT := func() (graphStats, error) {
		g := opt.NewGraph(res.P, opt.Full(), hot, cuts)
		return g, replayFile(res, g)
	}

	if mb.FP, err = measureGraph(res, want, flatPairBytes+flatAuxBytes, buildFP); err != nil {
		return mb, err
	}
	if mb.OPT, err = measureGraph(res, want, flatPairBytes, buildOPT); err != nil {
		return mb, err
	}
	return mb, nil
}

// measureGraph builds one algorithm's graph memoryReps times (GC before
// every build, no graph retained across one) for the best build time,
// reads its bytes and the live heap off the last build, and checks its
// slices against want. flatBytes is the flat model's cost per pair.
func measureGraph(res *Result, want []*slicing.Slice, flatBytes int64, build func() (graphStats, error)) (MemoryAlg, error) {
	var m MemoryAlg
	var g graphStats
	best := time.Duration(1 << 62)
	for rep := 0; rep < memoryReps; rep++ {
		g = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if g, err = build(); err != nil {
			return m, err
		}
		best = min(best, time.Since(t0))
	}
	m.LabelPairs = g.LabelPairs()
	m.FlatLabelBytes = m.LabelPairs * flatBytes
	m.CompactLabelBytes = g.LabelBytes()
	m.CompactResidentBytes = g.ResidentBytes()
	m.CompactBuildMs = ms(best)
	m.CompactHeapMB = liveHeapMB()
	got, err := sliceLoop(g, res.Crit)
	if err != nil {
		return m, err
	}

	if m.CompactLabelBytes > 0 {
		m.LabelRatio = float64(m.FlatLabelBytes) / float64(m.CompactLabelBytes)
	}
	if m.LabelPairs > 0 {
		m.CompactBytesPerDep = float64(m.CompactResidentBytes) / float64(m.LabelPairs)
	}
	m.IdenticalSlices = len(got) == len(want)
	for i := 0; m.IdenticalSlices && i < len(got); i++ {
		m.IdenticalSlices = got[i].Equal(want[i])
	}
	return m, nil
}

// liveHeapMB forces a GC and returns the live heap in MiB — the closest
// portable stand-in for peak RSS attributable to the graph just built.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
