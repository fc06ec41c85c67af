package opt

import "dynslice/internal/telemetry"

// Elim tallies, per optimization, how each processed execution was
// disposed of while building the dynamic component: covered by a
// statically introduced edge (OPT-1/2/4/5), covered by an adopted
// adaptive rule, producerless, or explicitly labeled. The counters are
// plain ints bumped on paths the builder already takes, so they cost
// nothing measurable and are always on; they surface through telemetry
// only when a registry is attached.
type Elim struct {
	// Data side: exactly one of the following is taken per use-slot
	// execution, so UseSlots equals their sum.
	UseSlots     int64 // use-slot executions processed
	OPT1DU       int64 // static def-use edge covered it (OPT-1; OPT-2c inside path nodes)
	OPT2UU       int64 // static use-use edge covered it (OPT-2b)
	AdaptiveData int64 // an adopted adaptive default rule covered it
	NoProducer   int64 // producerless use (tombstoned or rule vetoed)
	DataLabels   int64 // explicit data label recorded

	// Control side: exactly one of the following is taken per
	// block-occurrence execution, so CDExecs equals their sum.
	CDExecs    int64
	OPT4Delta  int64 // fixed-distance external ancestor inferred (OPT-4)
	OPT5Local  int64 // same-node earlier occurrence inferred (OPT-5)
	OPT5Same   int64 // control-equivalent occurrence deferral (OPT-5a)
	AdaptiveCD int64 // an adopted adaptive default rule covered it
	NoAncestor int64 // no controlling instance (tombstoned or rule vetoed)
	CDLabels   int64 // explicit control label recorded

	// Labels avoided because a cluster-shared list already held the pair.
	OPT3Dedup int64 // data-side shared lists (OPT-3)
	OPT6Dedup int64 // control-side shared lists (OPT-6)
}

// DataAccounted sums the mutually exclusive data-side dispositions; it
// must equal UseSlots.
func (e *Elim) DataAccounted() int64 {
	return e.OPT1DU + e.OPT2UU + e.AdaptiveData + e.NoProducer + e.DataLabels
}

// CDAccounted sums the mutually exclusive control-side dispositions; it
// must equal CDExecs.
func (e *Elim) CDAccounted() int64 {
	return e.OPT4Delta + e.OPT5Local + e.OPT5Same + e.AdaptiveCD + e.NoAncestor + e.CDLabels
}

// Elim returns the builder's elimination tallies.
func (g *Graph) Elim() Elim { return g.elim }

// SetTelemetry attaches a registry. Elimination tallies and graph-shape
// gauges are flushed when the trace ends; the shortcut-hit counter is
// live (it fires during slicing, after End).
func (g *Graph) SetTelemetry(reg *telemetry.Registry) {
	g.tel = reg
	g.cShortcut = reg.Counter("opt.slice.shortcut_hits")
	if len(g.lastDef) > 0 {
		// A snapshot-loaded graph holds its table already.
		reg.Gauge("opt.graph.bytes.lastdef").Set(g.LastDefBytes())
	}
}

// flushTelemetry publishes the build-time tallies, once.
func (g *Graph) flushTelemetry() {
	reg := g.tel
	if reg == nil || g.telFlushed {
		return
	}
	g.telFlushed = true
	e := &g.elim
	reg.Counter("opt.build.use_slots").Add(e.UseSlots)
	reg.Counter("opt.elim.opt1.du").Add(e.OPT1DU)
	reg.Counter("opt.elim.opt2.uu").Add(e.OPT2UU)
	reg.Counter("opt.elim.opt3.dedup").Add(e.OPT3Dedup)
	reg.Counter("opt.elim.adaptive.data").Add(e.AdaptiveData)
	reg.Counter("opt.build.no_producer").Add(e.NoProducer)
	reg.Counter("opt.labels.data").Add(e.DataLabels)
	reg.Counter("opt.build.cd_execs").Add(e.CDExecs)
	reg.Counter("opt.elim.opt4.delta").Add(e.OPT4Delta)
	reg.Counter("opt.elim.opt5.local").Add(e.OPT5Local)
	reg.Counter("opt.elim.opt5.same").Add(e.OPT5Same)
	reg.Counter("opt.elim.opt6.dedup").Add(e.OPT6Dedup)
	reg.Counter("opt.elim.adaptive.cd").Add(e.AdaptiveCD)
	reg.Counter("opt.build.no_ancestor").Add(e.NoAncestor)
	reg.Counter("opt.labels.cd").Add(e.CDLabels)

	reg.Gauge("opt.graph.nodes").Set(int64(g.Nodes()))
	reg.Gauge("opt.graph.path_nodes").Set(int64(g.PathNodes()))
	reg.Gauge("opt.graph.label_pairs").Set(g.LabelPairs())
	reg.Gauge("opt.graph.static_edges").Set(g.StaticEdges())
	reg.Gauge("opt.graph.adaptive_edges").Set(g.AdaptiveEdges())
	reg.Gauge("opt.graph.size_bytes").Set(g.SizeBytes())

	// Actual resident bytes of the compact representation (SizeBytes above
	// is the paper's 16-bytes-per-pair model, kept for Table 2 ratios).
	reg.Gauge("opt.graph.bytes.labels").Set(g.LabelBytes())
	reg.Gauge("opt.graph.bytes.edges").Set(g.EdgeBytes())
	reg.Gauge("opt.graph.bytes.resident").Set(g.ResidentBytes())
	reg.Gauge("opt.graph.bytes.lastdef").Set(g.LastDefBytes())
}
