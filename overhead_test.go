package slicer_test

import (
	"testing"
	"time"

	slicer "dynslice"
	"dynslice/internal/telemetry"
)

// overheadSrc is large enough that one pipeline run (record + slices)
// takes a stable, measurable amount of time.
const overheadSrc = `
var acc = 0;
var arr[64];

func mix(v) {
	return (v * 7 + 3) % 256;
}

func main() {
	var i = 0;
	while (i < 64) {
		arr[i] = mix(i);
		i = i + 1;
	}
	var r = 0;
	while (r < 24) {
		i = 0;
		while (i < 64) {
			if (arr[i] % 3 == 0) {
				acc = acc + arr[i];
			} else {
				arr[i] = mix(arr[i] + r);
			}
			i = i + 1;
		}
		r = r + 1;
	}
	print(acc);
}`

// pipeline runs the full instrumented path: record (profile + traced
// interpretation + FP/OPT graph builds) and a slice per algorithm —
// one direct and one through the QueryEngine, so the measured region
// includes the query audit hooks (querylog/stats nil checks) on their
// disabled path. Every slice routes through the observed traversal with
// a nil explain.Recorder, so the ≤5% guard below also covers the
// provenance hooks' disabled path.
func pipeline(tb testing.TB, p *slicer.Program, reg *telemetry.Registry) {
	rec, err := p.Record(slicer.RunOptions{Telemetry: reg})
	if err != nil {
		tb.Fatal(err)
	}
	defer rec.Close()
	for _, s := range []*slicer.Slicer{rec.OPT(), rec.FP()} {
		if _, err := s.SliceVar("acc"); err != nil {
			tb.Fatal(err)
		}
		e := s.Engine(slicer.EngineOptions{})
		for i := 0; i < 2; i++ { // second query is a cache hit
			if _, err := e.SliceVar("acc"); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkTelemetryOverhead compares the full pipeline with no registry
// attached ("off"), with a registry attached but switched off
// ("disabled"), and with live metrics ("enabled"). The "off" and
// "disabled" numbers should be indistinguishable: every hot-path
// instrument is either a nil receiver or a single guarded atomic load.
func BenchmarkTelemetryOverhead(b *testing.B) {
	p, err := slicer.Compile(overheadSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipeline(b, p, nil)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		reg := telemetry.New()
		reg.SetEnabled(false)
		for i := 0; i < b.N; i++ {
			pipeline(b, p, reg)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		reg := telemetry.New()
		for i := 0; i < b.N; i++ {
			pipeline(b, p, reg)
		}
	})
}

// BenchmarkObserverOverhead compares plain and observed queries on one
// frozen recording, per algorithm. The delta is the cost of live
// provenance recording (predecessor maps, per-kind counters, witness
// state); plain queries pay only a nil-receiver check per hook.
func BenchmarkObserverOverhead(b *testing.B) {
	p, err := slicer.Compile(overheadSrc)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := p.Record(slicer.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Close()
	for _, s := range []*slicer.Slicer{rec.OPT(), rec.FP()} {
		b.Run(s.Name()+"/plain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.SliceVar("acc"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.Name()+"/observed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.ExplainVar("acc"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// measure interleaves rounds of the two configurations and returns each
// one's best round. Interleaving cancels slow drift (thermal, GC pacing);
// the minimum (not mean) filters scheduler noise, which only ever slows a
// round down.
func measure(tb testing.TB, p *slicer.Program, a, b *telemetry.Registry, rounds, iters int) (time.Duration, time.Duration) {
	bestA := time.Duration(1<<63 - 1)
	bestB := bestA
	timeOne := func(reg *telemetry.Registry) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			pipeline(tb, p, reg)
		}
		return time.Since(start)
	}
	for r := 0; r < rounds; r++ {
		if d := timeOne(a); d < bestA {
			bestA = d
		}
		if d := timeOne(b); d < bestB {
			bestB = d
		}
	}
	return bestA, bestB
}

// TestOverhead is the CI guard for the "telemetry off must be near-free"
// contract: a disabled registry may cost at most 5% over no registry.
func TestOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	p, err := slicer.Compile(overheadSrc)
	if err != nil {
		t.Fatal(err)
	}
	disabled := telemetry.New()
	disabled.SetEnabled(false)

	// Warm caches and the page allocator before timing.
	pipeline(t, p, nil)
	pipeline(t, p, disabled)

	const rounds, iters, limit = 7, 8, 1.05
	for attempt := 0; ; attempt++ {
		off, dis := measure(t, p, nil, disabled, rounds, iters)
		ratio := float64(dis) / float64(off)
		t.Logf("off=%v disabled=%v ratio=%.3f", off, dis, ratio)
		if ratio <= limit {
			return
		}
		if attempt == 2 {
			t.Fatalf("disabled telemetry costs %.1f%% (limit %d%%)", (ratio-1)*100, int(limit*100-100))
		}
	}
}
