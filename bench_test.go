// Benchmarks regenerating the paper's evaluation, one per table and
// figure (see DESIGN.md's experiment index). Each benchmark measures the
// characteristic operation of its experiment on a representative workload
// and reports the paper's headline quantity as a custom metric. The full
// ten-workload evaluation is produced by cmd/experiments.
package slicer_test

import (
	"os"
	"testing"

	slicer "dynslice"
	"dynslice/internal/bench"
	"dynslice/internal/sequitur"
	"dynslice/internal/slicing"
	"dynslice/internal/trace"
)

// benchWorkload picks the workload benchmarks run on (override with
// DYNSLICE_BENCH_WORKLOAD).
func benchWorkload(b *testing.B) bench.Workload {
	name := os.Getenv("DYNSLICE_BENCH_WORKLOAD")
	if name == "" {
		name = "164.gzip"
	}
	w, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %q", name)
	}
	return w
}

func build(b *testing.B, o bench.Options) *bench.Result {
	b.Helper()
	res, err := bench.Build(benchWorkload(b), o)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(res.Close)
	return res
}

func sliceLoop(b *testing.B, s slicing.Slicer, crit []int64) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Slice(slicing.AddrCriterion(crit[i%len(crit)])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 measures LP slicing (the "Costs" column of Table 1) and
// reports USE/SS.
func BenchmarkTable1(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithLP: true})
	_, ss, _, err := bench.SliceAll(res.FP, res.Crit)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.USE)/ss, "USE/SS")
	sliceLoop(b, res.LP, res.Crit[:3])
}

// BenchmarkTable2 measures OPT graph construction from the trace and
// reports the size-reduction ratio.
func BenchmarkTable2(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithOPT: true})
	b.ReportMetric(float64(res.FP.SizeBytes())/float64(res.OPT.SizeBytes()), "size-ratio")
	b.ReportMetric(100*float64(res.OPT.LabelPairs())/float64(res.FP.LabelPairs()), "labels-%")
	benchReplayOPT(b, res)
}

func benchReplayOPT(b *testing.B, res *bench.Result) {
	prof, cuts := bench.Reprofile(b, res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := bench.NewOPTGraph(res.P, prof, cuts)
		f, err := os.Open(res.TracePath)
		if err != nil {
			b.Fatal(err)
		}
		if err := trace.Replay(res.P, f, g); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// BenchmarkTable3 measures OPT slicing with and without shortcut edges.
func BenchmarkTable3(b *testing.B) {
	res := build(b, bench.Options{WithOPT: true})
	b.Run("without-shortcuts", func(b *testing.B) {
		res.OPT.EnableShortcuts(false)
		sliceLoop(b, res.OPT, res.Crit)
	})
	b.Run("with-shortcuts", func(b *testing.B) {
		res.OPT.EnableShortcuts(true)
		sliceLoop(b, res.OPT, res.Crit)
	})
}

// BenchmarkTable4 measures OPT preprocessing (trace replay into the
// compacted graph).
func BenchmarkTable4(b *testing.B) {
	res := build(b, bench.Options{WithOPT: true})
	benchReplayOPT(b, res)
}

// BenchmarkTable5 compares preprocessing: LP's is trace collection only,
// OPT's adds graph construction; the ratio is reported as a metric.
func BenchmarkTable5(b *testing.B) {
	res := build(b, bench.Options{WithOPT: true, WithLP: true})
	b.ReportMetric(float64(res.TraceTime)/float64(res.TraceTime+res.OPTBuild), "LP/OPT-pre")
	benchReplayOPT(b, res)
}

// BenchmarkTable6 reports the LP max demand subgraph versus the OPT graph
// size while measuring LP queries.
func BenchmarkTable6(b *testing.B) {
	res := build(b, bench.Options{WithOPT: true, WithLP: true})
	if _, _, _, err := bench.SliceAll(res.LP, res.Crit[:5]); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.LP.MaxSubgraphEdges*24)/float64(res.OPT.SizeBytes()), "LPsub/OPT-bytes")
	sliceLoop(b, res.LP, res.Crit[:3])
}

// BenchmarkTable7 measures slicing, FP versus OPT.
func BenchmarkTable7(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithOPT: true})
	b.Run("fp", func(b *testing.B) { sliceLoop(b, res.FP, res.Crit) })
	b.Run("opt", func(b *testing.B) { sliceLoop(b, res.OPT, res.Crit) })
}

// BenchmarkTable8 measures preprocessing, FP versus OPT (the paper found
// FP slower due to label-array growth).
func BenchmarkTable8(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithOPT: true})
	b.ReportMetric(float64(res.FPBuild)/float64(res.OPTBuild), "FP/OPT-build")
	b.Run("fp-build", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := bench.NewFPGraph(res.P)
			f, err := os.Open(res.TracePath)
			if err != nil {
				b.Fatal(err)
			}
			if err := trace.Replay(res.P, f, g); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
	b.Run("opt-build", func(b *testing.B) { benchReplayOPT(b, res) })
}

// BenchmarkFig15 builds the graph at each cumulative optimization stage
// and reports the percentage of labels remaining.
func BenchmarkFig15(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithStages: true})
	full := float64(res.FP.LabelPairs())
	for stage, g := range res.Stages {
		b.ReportMetric(100*float64(g.LabelPairs())/full, bench.StageName(stage)+"-%")
	}
	benchReplayOPT(b, res)
}

// BenchmarkFig16 reports the data/control label split of the compacted
// graph.
func BenchmarkFig16(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithOPT: true})
	b.ReportMetric(100*float64(res.OPT.DataPairs())/float64(res.FP.DataPairs()), "ddg-%")
	b.ReportMetric(100*float64(res.OPT.CDPairs())/float64(res.FP.CDPairs()), "cdg-%")
	benchReplayOPT(b, res)
}

// BenchmarkFig17 measures OPT slicing on the fully built graph (the
// per-checkpoint variant is in cmd/experiments -exp 17).
func BenchmarkFig17(b *testing.B) {
	res := build(b, bench.Options{WithOPT: true})
	sliceLoop(b, res.OPT, res.Crit)
}

// BenchmarkFig18 measures a full 25-query batch per algorithm, the unit
// the cumulative-time figure plots.
func BenchmarkFig18(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithLP: true, WithOPT: true})
	b.Run("opt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := bench.SliceAll(res.OPT, res.Crit); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := bench.SliceAll(res.FP, res.Crit); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := bench.SliceAll(res.LP, res.Crit[:5]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuild times graph construction from a recorded trace: one
// replay into a fresh FP graph, then one into a fresh OPT graph.
func BenchmarkBuild(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithOPT: true})
	prof, cuts := bench.Reprofile(b, res)
	if deps := res.FP.LabelPairs() + res.OPT.LabelPairs(); deps > 0 {
		b.ReportMetric(float64(res.FP.ResidentBytes()+res.OPT.ResidentBytes())/float64(deps), "bytes/dep")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range []trace.Sink{bench.NewFPGraph(res.P), bench.NewOPTGraph(res.P, prof, cuts)} {
			f, err := os.Open(res.TracePath)
			if err != nil {
				b.Fatal(err)
			}
			if err := trace.Replay(res.P, f, g); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	}
}

// BenchmarkRecord times a cold Program.Record on the set-ups of the
// end-to-end benchmark's recording workloads: 300.twolf with 200 tracked
// criteria and a snapshot write (build-twolf), and 164.gzip with
// DeferGraphs (rare-gzip). It runs on those programs whatever
// DYNSLICE_BENCH_WORKLOAD says.
func BenchmarkRecord(b *testing.B) {
	for _, c := range []struct {
		program string
		opts    func(w bench.Workload, dir string) slicer.RunOptions
	}{
		{"300.twolf", func(w bench.Workload, dir string) slicer.RunOptions {
			return slicer.RunOptions{Input: w.Input, TrackCriteria: 200, TraceDir: dir,
				Snapshot: slicer.SnapshotOptions{Dir: dir, Write: true}}
		}},
		{"164.gzip", func(w bench.Workload, dir string) slicer.RunOptions {
			return slicer.RunOptions{Input: w.Input, TrackCriteria: 200, TraceDir: dir, DeferGraphs: true}
		}},
	} {
		b.Run(c.program, func(b *testing.B) {
			w, ok := bench.ByName(c.program)
			if !ok {
				b.Fatalf("unknown workload %q", c.program)
			}
			p, err := slicer.Compile(w.Src)
			if err != nil {
				b.Fatal(err)
			}
			o := c.opts(w, b.TempDir())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := p.Record(o)
				if err != nil {
					b.Fatal(err)
				}
				rec.Close()
			}
		})
	}
}

// BenchmarkSlice measures single-criterion OPT queries, each a
// one-criterion run of the traversal kernel; allocation counts show its
// per-query visited table and cursor state.
func BenchmarkSlice(b *testing.B) {
	res := build(b, bench.Options{WithOPT: true})
	b.ReportAllocs()
	sliceLoop(b, res.OPT, res.Crit)
	// After sliceLoop's ResetTimer: ResetTimer deletes user metrics.
	if deps := res.OPT.LabelPairs(); deps > 0 {
		b.ReportMetric(float64(res.OPT.ResidentBytes())/float64(deps), "bytes/dep")
	}
}

// BenchmarkSliceAll measures the full 25-criteria batch as ONE shared
// traversal per algorithm — the batched counterpart of BenchmarkSlice.
func BenchmarkSliceAll(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithOPT: true})
	for _, alg := range []struct {
		name        string
		s           slicing.MultiSlicer
		bytes, deps int64
	}{
		{"opt", res.OPT, res.OPT.ResidentBytes(), res.OPT.LabelPairs()},
		{"fp", res.FP, res.FP.ResidentBytes(), res.FP.LabelPairs()},
	} {
		b.Run(alg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			if alg.deps > 0 {
				b.ReportMetric(float64(alg.bytes)/float64(alg.deps), "bytes/dep")
			}
			for i := 0; i < b.N; i++ {
				if _, _, _, err := bench.SliceBatch(alg.s, res.Crit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSequitur measures grammar compression of the full graph's
// label stream and reports both compression factors (§4.1: the paper
// reports 9.18x for SEQUITUR vs 23.4x for OPT).
func BenchmarkSequitur(b *testing.B) {
	res := build(b, bench.Options{WithFP: true, WithOPT: true})
	stream := res.FP.DeltaStream()
	_, out, _ := sequitur.Compress(stream)
	b.ResetTimer()
	// After ResetTimer: ResetTimer deletes user metrics.
	b.ReportMetric(float64(res.FP.LabelPairs())/float64(out), "sequitur-x")
	b.ReportMetric(float64(res.FP.LabelPairs())/float64(res.OPT.LabelPairs()), "opt-x")
	for i := 0; i < b.N; i++ {
		sequitur.Compress(stream)
	}
}
