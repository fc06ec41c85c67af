package fuzzgen

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/forward"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/oracle"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/slicing/snapshot"
	"dynslice/internal/telemetry/stats"
	"dynslice/internal/trace"
)

// Variant is one slicer configuration in the differential matrix.
type Variant struct {
	Alg       string // "FP", "OPT", "LP", "forward", "reexec", "plan"
	Pipelined bool   // build via trace.Async on a worker goroutine
	Hybrid    bool   // OPT only: disk-epoch mode with an aggressive budget
	// Snapshot (FP/OPT) answers criteria from a graph that was serialized
	// into an on-disk snapshot image and loaded back (the persistent dyDG
	// cache round trip), instead of the resident graph the run built.
	Snapshot bool
	// Batch > 0 answers every criterion through one batched SliceAll (the
	// multi-criterion kernel run for FP/OPT, the shared backward scan for
	// LP) instead of per-criterion Slice calls — the batch results must
	// still match the oracle slice for slice. The value only appears in
	// the variant's name, which replay commands quote.
	Batch int
}

// Name renders the variant as a stable, human-readable tuple.
func (v Variant) Name() string {
	s := v.Alg
	switch v.Alg {
	case "FP", "OPT":
		if v.Pipelined {
			s += "/pipe"
		} else {
			s += "/seq"
		}
		if v.Hybrid {
			s += "/hybrid"
		}
		if v.Snapshot {
			s += "/snap"
		}
	}
	if v.Batch > 0 {
		s += fmt.Sprintf("/batch%d", v.Batch)
	}
	return s
}

// FullMatrix is the complete configuration matrix: FP x {seq,pipe},
// OPT x {seq,pipe} x {resident,hybrid}, plus LP, the forward slicer, the
// checkpoint re-execution backend (single and batched), and the
// cost-based planner dispatching over all of them, plus batched
// SliceAll variants (FP/OPT, hybrid OPT, and the LP shared scan). Every
// variant is compared against the brute-force oracle.
func FullMatrix() []Variant {
	var vs []Variant
	for _, pipe := range []bool{false, true} {
		vs = append(vs, Variant{Alg: "FP", Pipelined: pipe})
	}
	for _, pipe := range []bool{false, true} {
		for _, hyb := range []bool{false, true} {
			vs = append(vs, Variant{Alg: "OPT", Pipelined: pipe, Hybrid: hyb})
		}
	}
	vs = append(vs,
		Variant{Alg: "FP", Batch: 8},
		Variant{Alg: "OPT", Batch: 8},
		Variant{Alg: "OPT", Hybrid: true, Batch: 8},
		Variant{Alg: "LP", Batch: 1},
	)
	vs = append(vs,
		Variant{Alg: "FP", Snapshot: true},
		Variant{Alg: "OPT", Snapshot: true},
		Variant{Alg: "FP", Snapshot: true, Batch: 8},
		Variant{Alg: "OPT", Snapshot: true, Batch: 8},
	)
	vs = append(vs, Variant{Alg: "LP"}, Variant{Alg: "forward"})
	vs = append(vs,
		Variant{Alg: "reexec"},
		Variant{Alg: "reexec", Batch: 8},
		Variant{Alg: "plan"},
	)
	return vs
}

// QuickMatrix is a reduced matrix for per-exec fuzz targets: FP and OPT
// built inline and pipelined through trace.Async (as Record builds OPT),
// hybrid and batched OPT, both graphs through a snapshot, LP, forward,
// re-execution and the planner.
func QuickMatrix() []Variant {
	return []Variant{
		{Alg: "FP"},
		{Alg: "FP", Pipelined: true},
		{Alg: "OPT"},
		{Alg: "OPT", Pipelined: true},
		{Alg: "OPT", Hybrid: true},
		{Alg: "OPT", Batch: 8},
		{Alg: "FP", Snapshot: true},
		{Alg: "OPT", Snapshot: true},
		{Alg: "LP"},
		{Alg: "forward"},
		{Alg: "reexec"},
		{Alg: "plan"},
	}
}

// Options configures Check. The zero value selects the full matrix.
type Options struct {
	// Criteria caps the number of sampled address criteria (default 8).
	Criteria int
	// MaxSteps bounds each interpreter run (default 2,000,000); exceeding
	// it classifies as a RunError, which drivers treat as a skip.
	MaxSteps int64
	// HybridBudget is the resident-pair budget for hybrid variants
	// (default 1: flush at every opportunity).
	HybridBudget int64
	// Variants selects the matrix (default FullMatrix()).
	Variants []Variant
	// Witness additionally reruns each criterion as an observed query on
	// the OPT resident/hybrid variants and validates every hop of every
	// slice member's dependence-path witness against the oracle's
	// exercised dependence pairs (see witness.go).
	Witness bool
	// Tamper, when non-nil, mutates a variant's computed slice before
	// comparison. It exists so tests can plant a divergence and watch the
	// harness catch and minimize it; it is never set in production runs.
	Tamper func(variant string, s *slicing.Slice)
}

func (o Options) criteria() int {
	if o.Criteria <= 0 {
		return 8
	}
	return o.Criteria
}

func (o Options) maxSteps() int64 {
	if o.MaxSteps <= 0 {
		return 2_000_000
	}
	return o.MaxSteps
}

func (o Options) hybridBudget() int64 {
	if o.HybridBudget <= 0 {
		return 1
	}
	return o.HybridBudget
}

func (o Options) variants() []Variant {
	if len(o.Variants) == 0 {
		return FullMatrix()
	}
	return o.Variants
}

// CompileError reports that the subject program failed the front end —
// for generated programs this is a generator bug; for fuzzed source text
// it is an uninteresting input.
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return "fuzzgen: compile: " + e.Err.Error() }
func (e *CompileError) Unwrap() error { return e.Err }

// RunError reports that the subject program faulted or exhausted its step
// budget at runtime. Drivers treat it as a skip: the program is not a
// valid differential subject, but nothing about the slicers is wrong.
type RunError struct{ Err error }

func (e *RunError) Error() string { return "fuzzgen: run: " + e.Err.Error() }
func (e *RunError) Unwrap() error { return e.Err }

// Divergence is one observed disagreement between a variant and the
// oracle on one criterion.
type Divergence struct {
	Variant string
	Addr    int64
	Want    string // oracle slice, rendered
	Got     string // variant slice, rendered
	Err     string // non-empty when the variant errored instead
}

func (d Divergence) String() string {
	if d.Err != "" {
		return fmt.Sprintf("%s @addr %d: error: %s", d.Variant, d.Addr, d.Err)
	}
	return fmt.Sprintf("%s @addr %d:\n  oracle: %s\n  got:    %s", d.Variant, d.Addr, d.Want, d.Got)
}

// Result is the outcome of one differential check.
type Result struct {
	Stmts       int // executed statements of the subject run
	Criteria    int // criteria actually checked
	Variants    int // variants compared per criterion
	Divergences []Divergence
}

// sampler collects every address defined during a run so the driver can
// pick slicing criteria covering the whole store.
type sampler struct {
	defined map[int64]bool
}

func newSampler() *sampler         { return &sampler{defined: map[int64]bool{}} }
func (a *sampler) Block(*ir.Block) {}
func (a *sampler) End()            {}
func (a *sampler) Stmt(_ *ir.Stmt, _, defs []int64) {
	for _, d := range defs {
		a.defined[d] = true
	}
}
func (a *sampler) RegionDef(_ *ir.Stmt, start, length int64) {
	for x := start; x < start+length; x++ {
		a.defined[x] = true
	}
}

// sample returns up to n defined addresses, deterministically spread over
// the address space.
func (a *sampler) sample(n int) []int64 {
	all := make([]int64, 0, len(a.defined))
	for x := range a.defined {
		all = append(all, x)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) <= n {
		return all
	}
	out := make([]int64, 0, n)
	step := len(all) / n
	for i := 0; i < n; i++ {
		out = append(out, all[i*step])
	}
	return out
}

// Describe renders a slice as statement ids with positions, for messages.
func Describe(p *ir.Program, s *slicing.Slice) string {
	ids := s.Stmts()
	var out string
	for _, id := range ids {
		st := p.Stmt(id)
		out += fmt.Sprintf("s%d@%s(%s) ", id, st.Pos, st.Op)
	}
	return out
}

// variantSlicer pairs a built variant with its queryable slicer.
type variantSlicer struct {
	v Variant
	s slicing.Slicer
}

// Check compiles and runs src once under instrumentation, builds every
// variant's graph from that single execution, then slices every sampled
// criterion through the whole matrix and compares each answer against
// the brute-force oracle. It returns the observed divergences (empty
// means the PLDI'04 equivalence claim held on this program) or a
// CompileError / RunError when the subject itself is invalid.
func Check(src string, input []int64, o Options) (*Result, error) {
	p, err := compile.Source(src)
	if err != nil {
		return nil, &CompileError{Err: err}
	}

	// Profiling run: Ball-Larus path profile for OPT's specialization,
	// exactly as the paper's protocol prescribes.
	col := profile.NewCollector(p)
	res, err := interp.Run(p, interp.Options{Input: input, MaxSteps: o.maxSteps(), Sink: col})
	if err != nil {
		return nil, &RunError{Err: err}
	}
	hot := col.HotPaths(1, 0)
	cuts := col.Cuts()

	dir, err := os.MkdirTemp("", "fuzzgen")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Reference slicers and the criterion sampler.
	ora := oracle.New(p)
	fwd := forward.New(p)
	smp := newSampler()
	sinks := trace.Multi{ora, fwd, smp}

	// The LP slicer's trace, with small segments to exercise skipping.
	tf, err := os.Create(filepath.Join(dir, "run.trace"))
	if err != nil {
		return nil, err
	}
	tw := trace.NewWriter(p, tf, 64)
	sinks = append(sinks, tw)

	// Snapshot variants answer from graphs that round-tripped through the
	// on-disk image: one dedicated FP+OPT builder pair feeds the image,
	// which is written and re-read after the run.
	needSnap := false
	for _, v := range o.variants() {
		if v.Snapshot {
			needSnap = true
		}
	}
	var fpSnap *fp.Graph
	var optSnap *opt.Graph
	if needSnap {
		fpSnap = fp.NewGraph(p)
		optSnap = opt.NewGraph(p, opt.Full(), hot, cuts)
		sinks = append(sinks, fpSnap, optSnap)
	}

	// Matrix variants. Pipelined ones are wrapped in trace.Async so the
	// events arrive batched on a worker goroutine, as in production.
	var variants []variantSlicer
	var asyncs []*trace.Async
	// planFP/planOPT are resident graphs the plan variant reuses as its
	// warm graph backends (the first unpipelined instance of each — any
	// instance computes identical slices).
	var planFP, planOPT slicing.Slicer
	needRx := false
	for _, v := range o.variants() {
		if v.Alg == "reexec" || v.Alg == "plan" {
			needRx = true
		}
	}
	hybrids := 0
	for _, v := range o.variants() {
		if v.Snapshot {
			continue // built from the image after the run
		}
		var sink trace.Sink
		var sl slicing.Slicer
		switch v.Alg {
		case "FP":
			g := fp.NewGraph(p)
			if planFP == nil && !v.Pipelined {
				planFP = g
			}
			sink, sl = g, g
		case "OPT":
			g := opt.NewGraph(p, opt.Full(), hot, cuts)
			if planOPT == nil && !v.Pipelined && !v.Hybrid {
				planOPT = g
			}
			if v.Hybrid {
				hd := filepath.Join(dir, fmt.Sprintf("hybrid%d", hybrids))
				hybrids++
				if err := g.EnableHybrid(hd, o.hybridBudget()); err != nil {
					return nil, err
				}
			}
			sink, sl = g, g
		case "LP", "forward", "reexec", "plan":
			// LP and reexec are built from the trace writer's segment index
			// after the run; forward is registered once below (it is its own
			// sink); plan dispatches over the others.
			continue
		default:
			return nil, fmt.Errorf("fuzzgen: unknown variant algorithm %q", v.Alg)
		}
		if v.Pipelined {
			a := trace.NewAsync(sink, trace.PipelineConfig{})
			asyncs = append(asyncs, a)
			sink = a
		}
		sinks = append(sinks, sink)
		variants = append(variants, variantSlicer{v: v, s: sl})
	}

	// The single instrumented execution feeding every variant. When the
	// matrix includes re-execution, the run also captures checkpoints at
	// a small interval so resumes exercise the windowed suffix path.
	ckEvery := int64(0)
	if needRx {
		ckEvery = 64
	}
	res2, err := interp.Run(p, interp.Options{
		Input: input, MaxSteps: o.maxSteps(), Sink: sinks, CheckpointEvery: ckEvery,
	})
	if err != nil {
		for _, a := range asyncs {
			a.Close()
		}
		tf.Close()
		return nil, &RunError{Err: err}
	}
	if err := tf.Close(); err != nil {
		return nil, err
	}
	if tw.Err() != nil {
		return nil, fmt.Errorf("fuzzgen: trace write: %w", tw.Err())
	}

	var img *snapshot.Image
	if needSnap {
		snapPath := filepath.Join(dir, "run.dysnap")
		var key snapshot.Key // content addressing is the cache's concern, not the codec's
		if _, err := snapshot.Write(snapPath, key, &snapshot.Image{
			Output: res.Output, Steps: res.Steps, Return: res.ReturnValue,
			Segs: tw.Segments(), FP: fpSnap, OPT: optSnap,
		}); err != nil {
			return nil, fmt.Errorf("fuzzgen: snapshot write: %w", err)
		}
		if img, err = snapshot.Read(snapPath, p, key); err != nil {
			return nil, fmt.Errorf("fuzzgen: snapshot read: %w", err)
		}
	}

	// One shared re-execution slicer serves the reexec variants and the
	// plan variant's reexec backend: queries are sequential here, and
	// every Slice call opens its own resume cursor.
	var rxS *reexec.Slicer
	mkRx := func() *reexec.Slicer {
		if rxS == nil {
			rxS = reexec.New(p, tw.Segments(), reexec.Options{
				Input:       input,
				MaxSteps:    o.maxSteps(),
				TotalBlocks: res2.BlockExecs,
				Checkpoints: res2.Checkpoints,
			})
		}
		return rxS
	}
	for _, v := range o.variants() {
		if v.Snapshot {
			switch v.Alg {
			case "FP":
				variants = append(variants, variantSlicer{v: v, s: img.FP})
			case "OPT":
				variants = append(variants, variantSlicer{v: v, s: img.OPT})
			default:
				return nil, fmt.Errorf("fuzzgen: variant %s: snapshot applies to FP/OPT only", v.Name())
			}
			continue
		}
		switch v.Alg {
		case "LP":
			lps := lp.New(p, filepath.Join(dir, "run.trace"), tw.Segments())
			variants = append(variants, variantSlicer{v: v, s: lps})
		case "forward":
			variants = append(variants, variantSlicer{v: v, s: fwd})
		case "reexec":
			variants = append(variants, variantSlicer{v: v, s: mkRx()})
		case "plan":
			pv := &planVariant{
				feats: plan.Features{
					TraceBlocks: res2.BlockExecs,
					TraceSteps:  res2.Steps,
					Segments:    len(tw.Segments()),
					IRStmts:     len(p.Stmts),
				},
				av: plan.Availability{
					FP: planFP != nil, FPWarm: planFP != nil,
					OPT: planOPT != nil, OPTWarm: planOPT != nil,
					LP: true, Reexec: true, Forward: true,
				},
				backends: map[string]slicing.Slicer{
					plan.FP:      planFP,
					plan.OPT:     planOPT,
					plan.LP:      lp.New(p, filepath.Join(dir, "run.trace"), tw.Segments()),
					plan.Reexec:  mkRx(),
					plan.Forward: fwd,
				},
				stats: stats.New(),
			}
			variants = append(variants, variantSlicer{v: v, s: pv})
		}
	}

	addrs := smp.sample(o.criteria())
	out := &Result{Stmts: int(res.Steps), Criteria: len(addrs), Variants: len(variants)}

	// Batched variants answer the whole criterion set through one
	// SliceAll pass; the per-criterion loop below then compares each
	// precomputed answer slice for slice.
	batched := make(map[int][]*slicing.Slice)
	if cs := make([]slicing.Criterion, len(addrs)); len(cs) > 0 {
		for i, a := range addrs {
			cs[i] = slicing.AddrCriterion(a)
		}
		for vi, vs := range variants {
			if vs.v.Batch <= 0 {
				continue
			}
			ms, ok := vs.s.(slicing.MultiSlicer)
			if !ok {
				return nil, fmt.Errorf("fuzzgen: variant %s has no batched SliceAll", vs.v.Name())
			}
			outs, _, err := ms.SliceAll(cs)
			if err != nil {
				for _, a := range addrs {
					out.Divergences = append(out.Divergences, Divergence{
						Variant: vs.v.Name(), Addr: a, Err: err.Error(),
					})
				}
				continue
			}
			batched[vi] = outs
		}
	}

	var deps *oracle.Deps
	if o.Witness {
		deps = ora.Deps()
	}
	for ci, a := range addrs {
		c := slicing.AddrCriterion(a)
		want, _, err := ora.Slice(c)
		if err != nil {
			return nil, fmt.Errorf("fuzzgen: oracle slice addr %d: %w", a, err)
		}
		for vi, vs := range variants {
			var got *slicing.Slice
			if vs.v.Batch > 0 {
				outs, ok := batched[vi]
				if !ok {
					continue // SliceAll errored; divergences already recorded
				}
				got = outs[ci]
			} else if got, _, err = vs.s.Slice(c); err != nil {
				out.Divergences = append(out.Divergences, Divergence{
					Variant: vs.v.Name(), Addr: a, Err: err.Error(),
				})
				continue
			}
			if o.Tamper != nil {
				o.Tamper(vs.v.Name(), got)
			}
			if !want.Equal(got) {
				out.Divergences = append(out.Divergences, Divergence{
					Variant: vs.v.Name(), Addr: a,
					Want: Describe(p, want), Got: Describe(p, got),
				})
			}
			if o.Witness && witnessTarget(vs.v) {
				if ex, ok := vs.s.(slicing.Explainer); ok {
					out.Divergences = append(out.Divergences,
						checkWitnesses(p, deps, want, ex, c, vs.v.Name())...)
				}
			}
		}
	}
	return out, nil
}

// IsSubjectError reports whether err stems from the subject program
// (compile failure or runtime fault) rather than the harness.
func IsSubjectError(err error) bool {
	var ce *CompileError
	var re *RunError
	return errors.As(err, &ce) || errors.As(err, &re)
}
