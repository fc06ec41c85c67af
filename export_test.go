package slicer

import (
	"dynslice/internal/interp"
	"dynslice/internal/profile"
	"dynslice/internal/slicing/opt"
)

// OPTGraph exposes the recording's OPT graph to the external tests,
// building it on first use as OPT does.
func (r *Recording) OPTGraph() (*opt.Graph, error) { return r.ensureOPT() }

// RecordSized is Record's fresh build, without a snapshot, with the
// instrumented run's address tables sized for size(w) words instead of
// the profiling run's watermark w.
func (p *Program) RecordSized(o RunOptions, size func(w int64) int64) (*Recording, error) {
	col := profile.NewCollector(p.ir)
	pres, err := interp.Run(p.ir, interp.Options{Input: o.Input, MaxSteps: o.MaxSteps, Sink: col})
	if err != nil {
		return nil, err
	}
	rec, picker, err := p.instrumentedRun(o, opt.Full(), col.HotPaths(1, 0), col.Cuts(), size(pres.Watermark), false)
	if err != nil {
		return nil, err
	}
	if picker != nil {
		rec.crit = picker.Pick(o.TrackCriteria)
	}
	return rec, nil
}
