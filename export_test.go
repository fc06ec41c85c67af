package slicer

import "dynslice/internal/slicing/opt"

// OPTGraph exposes the recording's OPT graph to the external tests,
// building it on first use as OPT does.
func (r *Recording) OPTGraph() (*opt.Graph, error) { return r.ensureOPT() }
