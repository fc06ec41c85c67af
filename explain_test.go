package slicer_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	slicer "dynslice"
	"dynslice/internal/telemetry"
)

// explainSrc mixes loops, calls, control dependence, and an array so the
// OPT traversal exercises both explicit labels and inferred edges.
const explainSrc = `
var total = 0;
var arr[16];

func double(v) {
	return v + v;
}

func main() {
	var i = 0;
	while (i < 16) {
		arr[i] = double(i);
		i = i + 1;
	}
	i = 0;
	while (i < 16) {
		if (arr[i] % 4 == 0) {
			total = total + arr[i];
		}
		i = i + 1;
	}
	print(total);
}`

// TestExplainMatchesSlice: an observed query must return exactly the
// slice the unobserved query returns, on every algorithm, and every
// slice member must have a complete dependence-path witness.
func TestExplainMatchesSlice(t *testing.T) {
	rec := record(t, explainSrc)
	for _, s := range []*slicer.Slicer{rec.OPT(), rec.FP(), rec.LP()} {
		want, err := s.SliceVar("total")
		if err != nil {
			t.Fatal(err)
		}
		ex, err := s.ExplainVar("total")
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(ex.Slice.Lines) != len(want.Lines) {
			t.Fatalf("%s: explained slice has %v, SliceVar %v", s.Name(), ex.Slice.Lines, want.Lines)
		}
		for i, ln := range want.Lines {
			if ex.Slice.Lines[i] != ln {
				t.Fatalf("%s: line %d differs: %d vs %d", s.Name(), i, ex.Slice.Lines[i], ln)
			}
		}
		if ex.Profile.Edges == 0 || ex.Profile.NodesVisited == 0 {
			t.Errorf("%s: empty profile: %+v", s.Name(), ex.Profile)
		}
		for _, line := range ex.Slice.Lines {
			w, ok := ex.WitnessAtLine(line)
			if !ok || !w.Complete {
				t.Errorf("%s: no complete witness for sliced line %d", s.Name(), line)
				continue
			}
			out := ex.FormatWitness(w)
			if !strings.Contains(out, "witness for") {
				t.Errorf("%s: unformatted witness: %q", s.Name(), out)
			}
		}
	}
}

// TestExplainAttribution: the OPT traversal on this program must resolve
// some dependences explicitly AND infer others — the observable core of
// the paper's claim that most labels can be eliminated. FP must be fully
// explicit.
func TestExplainAttribution(t *testing.T) {
	rec := record(t, explainSrc)

	opt, err := rec.OPT().ExplainVar("total")
	if err != nil {
		t.Fatal(err)
	}
	if opt.Profile.Inferred == 0 {
		t.Errorf("OPT inferred no edges: %+v", opt.Profile.ByKind)
	}
	if opt.Profile.Explicit+opt.Profile.Inferred+opt.Profile.Shortcut != opt.Profile.Edges {
		t.Errorf("attribution does not partition edges: %+v", opt.Profile)
	}

	fp, err := rec.FP().ExplainVar("total")
	if err != nil {
		t.Fatal(err)
	}
	if fp.Profile.Inferred != 0 || fp.Profile.Shortcut != 0 {
		t.Errorf("FP should be fully explicit: %+v", fp.Profile.ByKind)
	}
	if fp.Profile.Explicit == 0 {
		t.Error("FP recorded no edges")
	}
}

// TestExplainWitnessAtLine: the line-addressed lookup used by
// cmd/slicer -explain must find a witness for a sliced line and reject
// an unsliced one.
func TestExplainWitnessAtLine(t *testing.T) {
	rec := record(t, explainSrc)
	ex, err := rec.OPT().ExplainVar("total")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.WitnessAtLine(12); !ok { // arr[i] = double(i);
		t.Errorf("no witness for line 12; slice lines = %v", ex.Slice.Lines)
	}
	if _, ok := ex.WitnessAtLine(4); ok { // blank line: no statement
		t.Error("witness for a line with no statement")
	}
}

// TestExplainUnsupported: an explainable algorithm is required.
func TestExplainErrors(t *testing.T) {
	rec := record(t, explainSrc)
	if _, err := rec.OPT().ExplainVar("nosuch"); err == nil {
		t.Error("unknown variable accepted")
	}
	ex, err := rec.OPT().ExplainVar("total")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.Witness(9999); ok {
		t.Error("witness for a non-member statement id")
	}
}

// TestRecordTimeline: a Record with an attached timeline must capture
// both the span tree and per-batch pipeline worker activity, and the
// export must be valid Chrome trace-event JSON.
func TestRecordTimeline(t *testing.T) {
	p, err := slicer.Compile(explainSrc)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	tl := telemetry.NewTimeline()
	reg.AttachTimeline(tl)
	rec, err := p.Record(slicer.RunOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for _, s := range []*slicer.Slicer{rec.OPT(), rec.FP()} {
		if _, err := s.SliceVar("total"); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []telemetry.TimelineEvent `json:"traceEvents"`
		Unit        string                    `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("timeline export is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	names := map[string]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event ph = %q, want X", ev.Ph)
		}
		cats[ev.Cat]++
		names[ev.Name] = true
	}
	if cats["span"] == 0 {
		t.Error("no span events in the timeline")
	}
	// The default Record path is pipelined: the OPT builder worker must
	// have contributed per-batch activity on its own row. FP is built by
	// a re-run on its first query, under its own span.
	if cats["pipeline"] == 0 {
		t.Error("no pipeline worker events in the timeline")
	}
	for _, want := range []string{"opt-build", "fp-deferred-build"} {
		if !names[want] {
			t.Errorf("missing pipeline row %q (have %v)", want, names)
		}
	}
}

// TestExplainConcurrentWithQueries: observed queries share the frozen
// graphs with plain queries; hammering both concurrently must be
// race-free (run under -race) and produce consistent answers.
func TestExplainConcurrentWithQueries(t *testing.T) {
	rec := record(t, explainSrc)
	for _, s := range []*slicer.Slicer{rec.OPT(), rec.FP(), rec.LP()} {
		want, err := s.SliceVar("total")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(observed bool) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					var lines []int
					if observed {
						ex, err := s.ExplainVar("total")
						if err != nil {
							errs <- err
							return
						}
						lines = ex.Slice.Lines
					} else {
						sl, err := s.SliceVar("total")
						if err != nil {
							errs <- err
							return
						}
						lines = sl.Lines
					}
					if len(lines) != len(want.Lines) {
						errs <- errMismatch
						return
					}
				}
			}(w%2 == 0)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent query returned a different slice" }

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
