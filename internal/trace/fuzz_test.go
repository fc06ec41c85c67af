package trace_test

import (
	"bytes"
	"testing"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/telemetry"
	"dynslice/internal/trace"
)

// FuzzTraceReader feeds arbitrary byte streams — seeded from valid
// encodings and hand-damaged variants of them — to the trace decoder,
// replaying each into an FP and an OPT builder alongside the recorder.
// The contract (see corrupt_test.go for the targeted cases): every
// stream either replays cleanly through the explicit End marker or
// returns a classified error. Never a panic — in the decoder or in the
// address-indexed builders it feeds — and never silent truncation — a
// nil error means the sink saw exactly one End event, as its final
// event.
func FuzzTraceReader(f *testing.F) {
	p, err := compile.Source(srcLoop)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(p, &buf, 4)
	if _, err := interp.Run(p, interp.Options{Sink: w}); err != nil {
		f.Fatal(err)
	}
	if w.Err() != nil {
		f.Fatal(w.Err())
	}
	good := buf.Bytes()

	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:trace.HeaderSize])
	f.Add([]byte{})
	corrupt := append([]byte(nil), good...)
	corrupt[0] ^= 0xFF
	f.Add(corrupt)
	f.Add(append(append([]byte(nil), good[:trace.HeaderSize]...), 0xFF, 0xFF, 0x7F))
	f.Add(streamSkipping(f, p, "f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized stream")
		}
		reg := telemetry.New()
		m := trace.NewMetrics(reg)
		rec := &recorder{}
		sinks := trace.Multi{rec, fp.NewGraph(p), opt.NewGraph(p, opt.Full(), nil, nil)}
		err := trace.ReplayWith(p, bytes.NewReader(data), sinks, m)

		ends := 0
		for _, ev := range rec.events {
			if ev == "E" {
				ends++
			}
		}
		if err == nil {
			if ends != 1 || rec.events[len(rec.events)-1] != "E" {
				t.Fatalf("clean replay without a single final End event: %d ends over %d events", ends, len(rec.events))
			}
			for _, n := range []string{"trace.read.err.truncated", "trace.read.err.bad_magic", "trace.read.err.bad_block", "trace.read.err.bad_record"} {
				if v := reg.Counter(n).Value(); v != 0 {
					t.Fatalf("counter %s = %d fired on a clean replay", n, v)
				}
			}
			return
		}
		if ends != 0 {
			t.Fatalf("failed replay (%v) still delivered %d End events", err, ends)
		}
		// Every error is classified by exactly one decoder counter.
		classified := int64(0)
		for _, n := range []string{"trace.read.err.truncated", "trace.read.err.bad_magic", "trace.read.err.bad_block", "trace.read.err.bad_record"} {
			classified += reg.Counter(n).Value()
		}
		if classified != 1 {
			t.Fatalf("error %q classified by %d counters, want 1", err, classified)
		}
	})
}
