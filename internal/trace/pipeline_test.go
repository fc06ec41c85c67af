package trace_test

import (
	"bytes"
	"testing"

	"dynslice/internal/interp"
	"dynslice/internal/trace"
)

// traceBytes records srcLoop into an in-memory trace once per test.
func traceBytes(t *testing.T) ([]byte, *recorder) {
	t.Helper()
	p := prog(t, srcLoop)
	var buf bytes.Buffer
	w := trace.NewWriter(p, &buf, 7)
	direct := &recorder{}
	if _, err := interp.Run(p, interp.Options{Sink: trace.Multi{w, direct}}); err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	return buf.Bytes(), direct
}

func sameEvents(t *testing.T, name string, want, got *recorder) {
	t.Helper()
	if len(want.events) != len(got.events) {
		t.Fatalf("%s: event counts differ: %d vs %d", name, len(want.events), len(got.events))
	}
	for i := range want.events {
		if want.events[i] != got.events[i] {
			t.Fatalf("%s: event %d differs: %q vs %q", name, i, want.events[i], got.events[i])
		}
	}
}

// TestParallelReplay checks a parallel replay: one Replay of a recorded
// trace fanned out through Multi to several Async workers. Every
// worker's sink must observe the exact stream the interpreter
// delivered, and a truncated trace must return an error without leaving
// a worker blocked.
func TestParallelReplay(t *testing.T) {
	p := prog(t, srcLoop)
	raw, direct := traceBytes(t)
	for _, cfg := range []trace.PipelineConfig{
		{},                         // defaults
		{BatchBlocks: 1, Depth: 1}, // worst-case hand-off
	} {
		sinks := []*recorder{{}, {}, {}}
		workers := make(trace.Multi, len(sinks))
		for i, s := range sinks {
			workers[i] = trace.NewAsync(s, cfg)
		}
		if err := trace.Replay(p, bytes.NewReader(raw), workers); err != nil {
			t.Fatal(err)
		}
		for _, s := range sinks {
			sameEvents(t, "sink", direct, s)
		}
	}

	// Truncated stream: Replay fails before End; Close drains the worker.
	a := trace.NewAsync(&recorder{}, trace.PipelineConfig{BatchBlocks: 1})
	if err := trace.Replay(p, bytes.NewReader(raw[:len(raw)/2]), a); err == nil {
		t.Fatal("truncated stream: expected error")
	}
	a.Close()
}

// TestAsyncSink checks that driving a sink through Async delivers the same
// stream across batch-size extremes (single-block batches force maximal
// hand-off), End acts as the drain barrier, and Close is safe on error
// paths.
func TestAsyncSink(t *testing.T) {
	p := prog(t, srcLoop)
	direct := &recorder{}
	if _, err := interp.Run(p, interp.Options{Sink: direct}); err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []trace.PipelineConfig{
		{},                               // defaults
		{BatchBlocks: 1, Depth: 1},       // worst-case hand-off
		{BatchBlocks: 2, Depth: 2},       // small batches
		{BatchBlocks: 3, Depth: 2},       // tiny batches
		{BatchBlocks: 1 << 20, Depth: 8}, // one giant batch
	} {
		async := &recorder{}
		a := trace.NewAsync(async, cfg)
		if _, err := interp.Run(p, interp.Options{Sink: a}); err != nil {
			t.Fatal(err)
		}
		// interp delivered End; the wrapper must have fully drained.
		sameEvents(t, "async", direct, async)
		a.Close() // idempotent after End
		a.End()   // and End after close is a no-op
	}

	// Abort path: stop producing mid-trace, Close must drain what was sent.
	partial := &recorder{}
	a2 := trace.NewAsync(partial, trace.PipelineConfig{BatchBlocks: 1})
	a2.Block(p.Blocks[0])
	a2.Close()
	if len(partial.events) != 1 {
		t.Fatalf("abort drain: got %d events, want 1", len(partial.events))
	}
	a2.Close() // idempotent
}
