package slicer_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	slicer "dynslice"
	"dynslice/internal/bench"
	"dynslice/internal/telemetry"
)

// TestRecordSizeIndependence: sizing the instrumented run's address
// tables for no words, too few, exactly the profiling run's watermark
// or too many changes no byte of the trace, of the OPT image or of the
// picks, nor the OPT last-definition table's final size.
func TestRecordSizeIndependence(t *testing.T) {
	sizes := []struct {
		name string
		size func(w int64) int64
	}{
		{"zero", func(int64) int64 { return 0 }},
		{"below", func(w int64) int64 { return w / 2 }},
		{"exact", func(w int64) int64 { return w }},
		{"above", func(w int64) int64 { return 2*w + 1000 }},
	}
	for _, w := range diffPrograms(t, "300.twolf") {
		p, err := slicer.Compile(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		var wantTrace, wantImage []byte
		var wantCrit []int64
		var wantLastDef int64
		for i, sz := range sizes {
			rec, err := p.RecordSized(slicer.RunOptions{Input: w.Input, TrackCriteria: 200}, sz.size)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := os.ReadFile(rec.TracePath())
			if err != nil {
				t.Fatal(err)
			}
			g, err := rec.OPTGraph()
			if err != nil {
				t.Fatal(err)
			}
			img, err := g.AppendSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			crit := rec.Criteria()
			rec.Close()
			if i == 0 {
				wantTrace, wantImage, wantCrit, wantLastDef = tr, img, crit, g.LastDefBytes()
				if len(crit) == 0 {
					t.Fatalf("%s: no criteria picked", w.Name)
				}
				continue
			}
			if !bytes.Equal(tr, wantTrace) {
				t.Errorf("%s, %s size: trace differs (%d bytes, want %d)", w.Name, sz.name, len(tr), len(wantTrace))
			}
			if !bytes.Equal(img, wantImage) {
				t.Errorf("%s, %s size: OPT image differs (%d bytes, want %d)", w.Name, sz.name, len(img), len(wantImage))
			}
			if !slices.Equal(crit, wantCrit) {
				t.Errorf("%s, %s size: picks differ", w.Name, sz.name)
			}
			if got := g.LastDefBytes(); got != wantLastDef {
				t.Errorf("%s, %s size: last-definition table %d bytes, want %d", w.Name, sz.name, got, wantLastDef)
			}
		}
	}
}

// TestRecordSpansCover: Record's child spans — the profiling run, the
// instrumented run, the criterion pick and the snapshot write — account
// for at least 95% of the record span on 130.li.
func TestRecordSpansCover(t *testing.T) {
	w, ok := bench.ByName("130.li")
	if !ok {
		t.Fatal("no workload 130.li")
	}
	p, err := slicer.Compile(w.Src)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	rec, err := p.Record(slicer.RunOptions{
		Input: w.Input, Telemetry: reg, TrackCriteria: 200,
		Snapshot: slicer.SnapshotOptions{Dir: t.TempDir(), Write: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
	spans := reg.Snapshot().Spans
	total := spans["record"].TotalMs
	var covered float64
	for _, c := range []string{"profile", "interp", "pick", "snapshot-write"} {
		s, ok := spans["record/"+c]
		if !ok || s.Count != 1 {
			t.Fatalf("span record/%s: %+v, want one occurrence", c, s)
		}
		covered += s.TotalMs
	}
	t.Logf("child spans cover %.2f of record's %.2f ms", covered, total)
	if covered < 0.95*total {
		t.Errorf("child spans cover %.2f of record's %.2f ms (%.1f%%), want at least 95%%", covered, total, 100*covered/total)
	}
}

// TestRecordTraceWriteError: a trace file that cannot be written fails
// Record with the write error. The trace path is a link to /dev/full,
// where every write fails with ENOSPC.
func TestRecordTraceWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "run.trace")); err != nil {
		t.Skip(err)
	}
	p, err := slicer.Compile(`
	func main() {
		var i = 0;
		while (i < 10) { i = i + 1; }
		print(i);
	}`)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Record(slicer.RunOptions{TraceDir: dir, TrackCriteria: 4})
	if err == nil {
		rec.Close()
		t.Fatal("Record succeeded on an unwritable trace")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Record error %v, want ENOSPC", err)
	}
}
