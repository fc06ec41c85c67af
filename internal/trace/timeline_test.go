package trace_test

import (
	"bytes"
	"testing"

	"dynslice/internal/interp"
	"dynslice/internal/telemetry"
	"dynslice/internal/trace"
)

// TestParallelReplayTimeline checks that in a parallel replay (one Replay
// fanned out to several Async workers) every worker sharing a timeline
// emits its batches on its own nonzero row.
func TestParallelReplayTimeline(t *testing.T) {
	p := prog(t, srcLoop)
	raw, _ := traceBytes(t)

	tl := telemetry.NewTimeline()
	cfg := trace.PipelineConfig{BatchBlocks: 2, Timeline: tl} // several batches -> several events per worker
	workers := trace.Multi{trace.NewAsync(&recorder{}, cfg), trace.NewAsync(&recorder{}, cfg)}
	if err := trace.Replay(p, bytes.NewReader(raw), workers); err != nil {
		t.Fatal(err)
	}

	rows := map[int]int{}
	for _, ev := range tl.Events() {
		if ev.Cat != "pipeline" {
			t.Errorf("cat = %q, want pipeline", ev.Cat)
		}
		rows[ev.Tid]++
	}
	if len(rows) != 2 {
		t.Fatalf("events on rows %v, want one row per worker", rows)
	}
	for tid, n := range rows {
		if tid == 0 || n < 1 {
			t.Errorf("tid=%d n=%d, want a dedicated nonzero row", tid, n)
		}
	}
}

// TestAsyncTimeline checks the Async wrapper's per-batch emission and
// that an absent timeline costs no events (nil-safe path).
func TestAsyncTimeline(t *testing.T) {
	p := prog(t, srcLoop)

	tl := telemetry.NewTimeline()
	a := trace.NewAsync(&recorder{}, trace.PipelineConfig{BatchBlocks: 2, Timeline: tl})
	if _, err := interp.Run(p, interp.Options{Sink: a}); err != nil {
		t.Fatal(err)
	}
	if tl.Len() < 1 {
		t.Fatal("async worker emitted no timeline events")
	}
	for _, ev := range tl.Events() {
		if ev.Name != "opt-build" || ev.Cat != "pipeline" || ev.Tid == 0 {
			t.Errorf("event = %+v, want opt-build/pipeline on a worker row", ev)
		}
	}

	// No timeline attached: same pipeline, zero emission, no panic.
	a2 := trace.NewAsync(&recorder{}, trace.PipelineConfig{BatchBlocks: 2})
	if _, err := interp.Run(p, interp.Options{Sink: a2}); err != nil {
		t.Fatal(err)
	}
}
