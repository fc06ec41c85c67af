// Package opt implements the paper's contribution: dynamic slicing over a
// compacted dynamic dependence graph in which most dependence instances
// are inferred from statically introduced unlabeled edges rather than
// stored as explicit timestamp pairs.
//
// The optimization families map to the paper as follows:
//
//	OPT-1a/1b  Config.LocalDefUse  block-local def-use edges become static;
//	                               may-alias interference degrades them to
//	                               partial edges with dynamic fallback labels
//	OPT-2b     Config.UseUse       non-local def-use replaced by local
//	                               use-use edges (targets a use, whose
//	                               statement is not added to the slice)
//	OPT-2c     Config.PathSpec     Ball-Larus path specialization: path
//	                               nodes make cross-block dependences local
//	OPT-3      Config.ShareData    label sharing across non-local data
//	                               dependence edges proven simultaneous
//	OPT-4      Config.InferCD      fixed-distance unique control ancestor:
//	                               static control edge with a delta
//	OPT-5      Config.SpecCD       control dependences internal to a
//	                               specialized path become static (delta 0)
//	OPT-6      Config.ShareCDData  control edges share labels with a
//	                               simultaneous data edge
//	§3.4       Config.Shortcuts    shortcut edges precompute the transitive
//	                               closure of all-static subgraphs
//
// OPT-2a (node specialization under aliasing) is not applied, mirroring
// the paper ("We do not apply OPT-2a because we do not have an effective
// static heuristic for applying OPT-2a").
//
// Every static edge is verified at graph-construction time: whenever the
// dependence actually exercised differs from what the static edge would
// infer, an explicit label is recorded. Static-analysis imprecision can
// therefore only cost compression, never slice correctness.
package opt

// Config selects which optimizations the graph applies. The zero value
// disables everything, yielding a fully labeled graph whose label count
// equals the FP graph's (a property the tests check).
type Config struct {
	LocalDefUse bool // OPT-1a / OPT-1b
	UseUse      bool // OPT-2b
	PathSpec    bool // OPT-2c
	ShareData   bool // OPT-3
	InferCD     bool // OPT-4
	SpecCD      bool // OPT-5
	ShareCDData bool // OPT-6
	Shortcuts   bool // shortcut edges (§3.4 "Using Shortcuts to Speed Up Traversal")

	// AdaptiveDeltas enables adaptive default edges: build-time-verified
	// fixed-delta / constant-source inference for dependences the purely
	// static component leaves labeled (loop-carried scalars at steady
	// distances, loop-invariant uses, return-value hand-offs). This
	// generalizes OPT-4's fixed-distance inference and stands in for the
	// paper's replication-based OPT-2a/OPT-5a/OPT-5b specializations,
	// which this reproduction does not replicate structurally. Every
	// inference is verified during construction; disagreeing executions
	// fall back to explicit labels.
	AdaptiveDeltas bool
}

// Full returns the configuration with every optimization enabled, the
// configuration evaluated as "OPT" in the paper.
func Full() Config {
	return Config{
		LocalDefUse:    true,
		UseUse:         true,
		PathSpec:       true,
		ShareData:      true,
		InferCD:        true,
		SpecCD:         true,
		ShareCDData:    true,
		Shortcuts:      true,
		AdaptiveDeltas: true,
	}
}

// Stage returns the cumulative configuration after applying optimization
// families 1..n in the paper's Fig. 15 order (Stage(0) disables all,
// Stage(6) is the paper's full optimization set, and Stage(7) adds this
// reproduction's adaptive-delta extension; shortcuts do not affect graph
// size).
func Stage(n int) Config {
	var c Config
	if n >= 1 {
		c.LocalDefUse = true
	}
	if n >= 2 {
		c.UseUse = true
		c.PathSpec = true
	}
	if n >= 3 {
		c.ShareData = true
	}
	if n >= 4 {
		c.InferCD = true
	}
	if n >= 5 {
		c.SpecCD = true
	}
	if n >= 6 {
		c.ShareCDData = true
	}
	if n >= 7 {
		c.AdaptiveDeltas = true // extension stage, reported separately
	}
	return c
}
