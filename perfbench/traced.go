package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	slicer "dynslice"
	"dynslice/internal/bench"
	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/slicing/snapshot"
	"dynslice/internal/trace"
)

// span is one timed call into a layer's public function, made from the
// benchmark's own code. Times are nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`

	Instances   int64 `json:"instances,omitempty"`
	LabelProbes int64 `json:"label_probes,omitempty"`
	SegScans    int64 `json:"seg_scans,omitempty"`
	SegSkips    int64 `json:"seg_skips,omitempty"`

	alloc0 uint64
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps a run's spans in memory until it ends. A nil tracer
// records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds(), alloc0: allocBytes()})
	return len(t.spans) - 1
}

// end closes span id, attaching the traversal counts the call returned.
func (t *tracer) end(id int, st *slicing.Stats) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Alloc = allocBytes() - s.alloc0
	if st != nil {
		s.Instances, s.LabelProbes = st.Instances, st.LabelProbes
		s.SegScans, s.SegSkips = st.SegScans, st.SegSkips
	}
}

// unattributed is the share of the roots' time that no child covers.
func (t *tracer) unattributed() float64 {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var total, bare int64
	for _, s := range t.spans {
		if s.Parent >= 0 {
			continue
		}
		total += s.End - s.Start
		bare += s.End - s.Start - covered(kids[s.ID])
	}
	if total == 0 {
		return 0
	}
	return float64(bare) / float64(total)
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			n += x[1] - end
			end = x[1]
		}
	}
	return n
}

// layers is a recording rebuilt from the layers' public functions, the
// way internal/bench.Build does, so that each call gets its own span.
type layers struct {
	crit      []int64
	fp        *fp.Graph
	opt       *opt.Graph
	lp        *lp.Slicer
	reexec    *reexec.Slicer
	steps     int64 // interpreter steps of the profile run
	ckpts     int   // checkpoints the instrumented run captured
	traceLen  int64
	segs      int
	snapBytes int64
}

// snapKey addresses the benchmark's own snapshot image.
func snapKey(p *ir.Program, input []int64) snapshot.Key {
	return snapshot.Key{
		Program: snapshot.HashProgram(p),
		Input:   snapshot.HashInput(input, 0),
		Config:  snapshot.HashConfig("perfbench"),
	}
}

// buildLayers does a workload's set-up layer by layer under span root.
// A snapshot-mode set-up reads the image at snapPath, which an earlier
// build-mode call wrote.
func buildLayers(t *tracer, root int, mode string, bw bench.Workload, dir, snapPath string) (*layers, error) {
	l := &layers{}
	id := t.begin("compile", root)
	p, err := compile.SourceWith(bw.Src, nil)
	t.end(id, nil)
	if err != nil {
		return nil, err
	}
	if mode == modeSnapshot {
		id = t.begin("snapshot.read", root)
		img, err := snapshot.Read(snapPath, p, snapKey(p, bw.Input))
		t.end(id, nil)
		if err != nil {
			return nil, err
		}
		l.crit, l.fp, l.opt, l.segs = img.Criteria, img.FP, img.OPT, len(img.Segs)
		l.snapBytes = fileSize(snapPath)
		return l, nil
	}

	id = t.begin("interp.profile", root)
	col := profile.NewCollector(p)
	pres, err := interp.Run(p, interp.Options{Input: bw.Input, Sink: col})
	t.end(id, nil)
	if err != nil {
		return nil, err
	}
	l.steps = pres.Steps
	hot, cuts := col.HotPaths(1, 0), col.Cuts()

	tracePath := filepath.Join(dir, "run.trace")
	var ck int64
	if mode == modeDeferred {
		ck = 4096 // Record's default for deferred graphs: one per segment
	}
	id = t.begin("trace.record", root)
	res, segs, crit, err := recordTrace(p, bw.Input, tracePath, ck)
	t.end(id, nil)
	if err != nil {
		return nil, err
	}
	l.crit, l.segs, l.ckpts = crit, len(segs), len(res.Checkpoints)
	l.traceLen = fileSize(tracePath)
	if mode == modeDeferred {
		l.reexec = reexec.New(p, segs, reexec.Options{Input: bw.Input, TotalBlocks: res.BlockExecs, Checkpoints: res.Checkpoints})
		l.lp = lp.New(p, tracePath, segs)
		return l, nil
	}

	l.fp = fp.NewGraph(p)
	l.fp.SetParallelEncode(0)
	id = t.begin("fp.build", root)
	err = replay(p, tracePath, l.fp)
	t.end(id, nil)
	if err != nil {
		return nil, err
	}
	l.opt = opt.NewGraph(p, opt.Full(), hot, cuts)
	l.opt.SetParallelEncode(0)
	id = t.begin("opt.build", root)
	err = replay(p, tracePath, l.opt)
	t.end(id, nil)
	if err != nil {
		return nil, err
	}
	l.lp = lp.New(p, tracePath, segs)

	id = t.begin("snapshot.write", root)
	img := &snapshot.Image{Output: res.Output, Steps: res.Steps, Return: res.ReturnValue,
		Criteria: crit, Segs: segs, FP: l.fp, OPT: l.opt}
	l.snapBytes, err = snapshot.Write(snapPath, snapKey(p, bw.Input), img)
	t.end(id, nil)
	return l, err
}

// recordTrace is the instrumented run: it writes the trace and picks the
// tracked criteria.
func recordTrace(p *ir.Program, input []int64, path string, ckEvery int64) (*interp.Result, []*trace.Segment, []int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, nil, err
	}
	tw := trace.NewWriter(p, f, 4096)
	picker := trace.NewCritPicker()
	res, err := interp.Run(p, interp.Options{Input: input, Sink: trace.Multi{tw, picker}, CheckpointEvery: ckEvery})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = tw.Err()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return res, tw.Segments(), picker.Pick(trackCriteria), nil
}

func replay(p *ir.Program, path string, sink trace.Sink) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.ReplayWith(p, f, sink, nil)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// lru mirrors the engine's result cache over addresses, most recent last.
type lru struct {
	max  int
	keys []int64
}

func (c *lru) hit(a int64) bool {
	for i, k := range c.keys {
		if k == a {
			c.keys = append(append(c.keys[:i:i], c.keys[i+1:]...), a)
			return true
		}
	}
	return false
}

func (c *lru) add(a int64) {
	if c.max <= 0 || c.hit(a) {
		return
	}
	c.keys = append(c.keys, a)
	if len(c.keys) > c.max {
		c.keys = c.keys[1:]
	}
}

// backendLayer names the span of one backend call.
func backendLayer(backend string, batch bool) string {
	switch {
	case backend == plan.OPT && batch:
		return "batch.slice"
	case backend == plan.OPT:
		return "opt.slice"
	case backend == plan.Reexec:
		return "reexec.slice"
	}
	return backend + ".slice"
}

func (l *layers) backend(name string) slicing.MultiSlicer {
	switch name {
	case plan.OPT:
		return l.opt
	case plan.FP:
		return l.fp
	case plan.Reexec:
		return l.reexec
	case plan.LP:
		return l.lp
	}
	return nil
}

// queryLayers runs one op under span root the way the planned engine
// does: cache lookups, then one plan and one backend call for the
// distinct misses, in ascending address order. It returns the backend
// and the misses it answered.
func queryLayers(t *tracer, root int, l *layers, rec *slicer.Recording, cache *lru, refs *workloadRefs, addrs []int64, workers int) (string, []int64, error) {
	id := t.begin("engine.lookup", root)
	var miss []int64
	for _, a := range addrs {
		if !cache.hit(a) && !contains(miss, a) {
			miss = append(miss, a)
		}
	}
	t.end(id, nil)
	if len(miss) == 0 {
		return "", nil, nil
	}
	sort.Slice(miss, func(i, j int) bool { return miss[i] < miss[j] })
	shape := plan.Shape{Kind: plan.KindSlice, Batch: 1}
	if len(addrs) > 1 {
		shape = plan.Shape{Kind: plan.KindBatch, Batch: len(miss)}
	}
	id = t.begin("plan.decide", root)
	d := rec.PlanFor(shape)
	t.end(id, nil)
	b := l.backend(d.Backend)
	if b == nil {
		return d.Backend, nil, fmt.Errorf("planner chose %q, which the traced run does not build", d.Backend)
	}
	cs := make([]slicing.Criterion, len(miss))
	for i, a := range miss {
		cs[i] = slicing.AddrCriterion(a)
	}
	var out []*slicing.Slice
	var st *slicing.Stats
	var err error
	id = t.begin(backendLayer(d.Backend, len(addrs) > 1), root)
	if len(addrs) > 1 {
		if sw, ok := b.(interface{ SetWorkers(int) }); ok {
			sw.SetWorkers(workers)
		}
		out, st, err = b.SliceAll(cs)
	} else {
		var sl *slicing.Slice
		sl, st, err = b.Slice(cs[0])
		out = []*slicing.Slice{sl}
	}
	t.end(id, st)
	if err != nil {
		return d.Backend, nil, err
	}
	for i, a := range miss {
		if err := refs.check(a, out[i]); err != nil {
			return d.Backend, nil, err
		}
		cache.add(a)
	}
	return d.Backend, miss, nil
}

// batchCounts answers a batch again on one worker. Two workers race to
// probe labels, so their probe counts vary from run to run; one worker's
// counts repeat exactly.
func batchCounts(b slicing.MultiSlicer, miss []int64) (*slicing.Stats, error) {
	cs := make([]slicing.Criterion, len(miss))
	for i, a := range miss {
		cs[i] = slicing.AddrCriterion(a)
	}
	b.(interface{ SetWorkers(int) }).SetWorkers(1)
	_, st, err := b.SliceAll(cs)
	return st, err
}

func contains(s []int64, a int64) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

// tracedRun is the per-layer run. It first runs the set-up and the
// first n ops through the façade, untraced; that recording plans the
// traced ops, and its op times are the base of the tracing overhead.
// Then it repeats set-up and ops layer by layer, one span per call, and
// derives the per-layer metrics from the spans.
func tracedRun(w *workload, dir, out string, seed int64, n int) (*result, error) {
	r := &result{}
	fs, err := w.setUp(filepath.Join(dir, "facade"), 1, w.observe)
	if err != nil {
		return nil, err
	}
	defer fs.rec.Close()
	fops, err := w.runOps(fs, seed, 0, n)
	if err != nil {
		return nil, err
	}
	r.Failed += fops.failed + fs.failed
	telemetryShare := 0.0
	if w.observe {
		// The same stream again with no observers attached.
		bs, err := w.setUp(filepath.Join(dir, "bare"), 1, false)
		if err != nil {
			return nil, err
		}
		bops, err := w.runOps(bs, seed, 0, n)
		bs.rec.Close()
		if err != nil {
			return nil, err
		}
		r.Failed += bops.failed
		telemetryShare = fops.busy.Seconds()/bops.busy.Seconds() - 1
	}

	ldir := filepath.Join(dir, "layers")
	if err := os.MkdirAll(ldir, 0o755); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(ldir, "image.dysnap")
	if w.mode == modeSnapshot {
		// Untraced prep: the traced set-up reads what this writes.
		if _, err := buildLayers(nil, -1, modeBuild, fs.bw, ldir, snapPath); err != nil {
			return nil, fmt.Errorf("snapshot prep: %w", err)
		}
	}
	runtime.GC()
	t := &tracer{t0: time.Now()}
	root := t.begin("setup", -1)
	l, err := buildLayers(t, root, w.mode, fs.bw, ldir, snapPath)
	t.end(root, nil)
	if err != nil {
		return nil, err
	}
	if err := fs.refs.matches(l.crit); err != nil {
		return nil, err
	}
	cacheSize := w.cache
	if cacheSize == 0 {
		cacheSize = 64 // the engine's default
	}
	// The untimed warm-up op, as in the untraced run, on its own cache.
	if _, _, err := queryLayers(nil, -1, l, fs.rec, &lru{max: cacheSize}, fs.refs, warmupOp(w, l.crit, fs.refs), engineWorkers); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	cache := &lru{max: cacheSize}
	choices := map[string]int{}
	var batch slicing.Stats // counts of the batches, on one worker
	for i, addrs := range fops.addrs {
		runtime.GC()
		root := t.begin("query", -1)
		backend, miss, err := queryLayers(t, root, l, fs.rec, cache, fs.refs, addrs, engineWorkers)
		t.end(root, nil)
		if err == nil && len(addrs) > 1 && len(miss) > 0 {
			var st *slicing.Stats
			if st, err = batchCounts(l.backend(backend), miss); err == nil {
				batch.Instances += st.Instances
				batch.LabelProbes += st.LabelProbes
			}
		}
		if err != nil {
			r.Failed++
			fmt.Fprintf(os.Stderr, "traced op %d failed: %v\n", i, err)
		}
		if backend != "" {
			choices[backend]++
		}
	}
	r.Attempted = len(fops.addrs)
	r.ops = fops.addrs

	if err := writeSpans(out, w.name, seed, t.spans); err != nil {
		return nil, err
	}
	layerMetrics(r, t, l, fops, choices, batch)
	r.add("telemetry.overhead_share", "ratio", telemetryShare)
	var queryNs int64
	for _, s := range t.spans {
		if s.Name == "query" {
			queryNs += s.End - s.Start
		}
	}
	r.add("bench.unattributed_share", "ratio", t.unattributed())
	r.add("bench.tracing_overhead", "ratio", float64(queryNs)/float64(fops.busy.Nanoseconds())-1)
	r.add("bench.setup_gap_ms", "ms", t.spans[0].ms()-fs.setupS[0]*1e3)
	r.note("%s traced: %d ops, seed %d; spans in %s", w.name, len(fops.addrs), seed, spanFile(out, w.name, seed))
	return r, nil
}

// layerMetrics derives the per-layer metrics from the spans and the
// rebuilt layers.
func layerMetrics(r *result, t *tracer, l *layers, fops *opStats, choices map[string]int, batch slicing.Stats) {
	type agg struct {
		ms                         []float64
		alloc                      uint64
		inst, probes, scans, skips int64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.ms = append(a.ms, s.ms())
		a.alloc += s.Alloc
		a.inst += s.Instances
		a.probes += s.LabelProbes
		a.scans += s.SegScans
		a.skips += s.SegSkips
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{}
	}
	perCall := func(a *agg) float64 {
		if len(a.ms) == 0 {
			return 0
		}
		return mb(a.alloc) / float64(len(a.ms))
	}
	r.add("compile.ms", "ms", median(get("compile").ms))
	r.add("interp.profile_ms", "ms", median(get("interp.profile").ms))
	r.add("interp.steps", "count", float64(l.steps))
	r.add("interp.checkpoints", "count", float64(l.ckpts))
	r.add("trace.record_ms", "ms", median(get("trace.record").ms))
	r.add("trace.bytes", "bytes", float64(l.traceLen))
	r.add("trace.segments", "count", float64(l.segs))
	r.add("fp.build_ms", "ms", median(get("fp.build").ms))
	r.add("opt.build_ms", "ms", median(get("opt.build").ms))
	r.add("fp.build_alloc_mb", "MB", mb(get("fp.build").alloc))
	r.add("opt.build_alloc_mb", "MB", mb(get("opt.build").alloc))
	var fpPairs, optPairs, fpRes, optRes int64
	if l.fp != nil {
		fpPairs, fpRes = l.fp.LabelPairs(), l.fp.ResidentBytes()
	}
	if l.opt != nil {
		optPairs, optRes = l.opt.LabelPairs(), l.opt.ResidentBytes()
	}
	r.add("fp.label_pairs", "count", float64(fpPairs))
	r.add("opt.label_pairs", "count", float64(optPairs))
	r.add("fp.resident_mb", "MB", mb(uint64(fpRes)))
	r.add("opt.resident_mb", "MB", mb(uint64(optRes)))
	r.add("snapshot.write_ms", "ms", median(get("snapshot.write").ms))
	r.add("snapshot.read_ms", "ms", median(get("snapshot.read").ms))
	r.add("snapshot.bytes", "bytes", float64(l.snapBytes))

	decide := get("plan.decide")
	us := make([]float64, len(decide.ms))
	for i, v := range decide.ms {
		us[i] = v * 1e3
	}
	r.add("plan.decide_us", "us", median(us))
	r.add("plan.decisions", "count", float64(len(decide.ms)))
	share := func(n int) float64 {
		if len(decide.ms) == 0 {
			return 0
		}
		return float64(n) / float64(len(decide.ms))
	}
	r.add("plan.share.opt", "ratio", share(choices[plan.OPT]))
	r.add("plan.share.reexec", "ratio", share(choices[plan.Reexec]))
	r.add("plan.share.other", "ratio", share(len(decide.ms)-choices[plan.OPT]-choices[plan.Reexec]))

	lookups := fops.hits + fops.misses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(fops.hits) / float64(lookups)
	}
	r.add("engine.hit_rate", "ratio", hitRate)
	r.add("engine.lookups", "count", float64(lookups))

	o := get("opt.slice")
	r.add("opt.slice_ms", "ms", median(o.ms))
	r.add("opt.slice_alloc_mb", "MB", perCall(o))
	r.add("opt.instances", "count", float64(o.inst))
	r.add("opt.label_probes", "count", float64(o.probes))
	b := get("batch.slice")
	r.add("batch.slice_ms", "ms", median(b.ms))
	r.add("batch.alloc_mb", "MB", perCall(b))
	r.add("batch.instances", "count", float64(batch.Instances))
	r.add("batch.label_probes", "count", float64(batch.LabelProbes))
	x := get("reexec.slice")
	r.add("reexec.slice_ms", "ms", median(x.ms))
	r.add("reexec.alloc_mb", "MB", perCall(x))
	r.add("reexec.seg_scans", "count", float64(x.scans))
	r.add("reexec.seg_skips", "count", float64(x.skips))
	skipRatio := 0.0
	if x.scans+x.skips > 0 {
		skipRatio = float64(x.skips) / float64(x.scans+x.skips)
	}
	r.add("reexec.seg_skip_ratio", "ratio", skipRatio)
}

func spanFile(out, name string, seed int64) string {
	return filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", name, seed))
}

// writeSpans dumps a run's spans once the run is over.
func writeSpans(out, name string, seed int64, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(spanFile(out, name, seed), b, 0o644)
}
