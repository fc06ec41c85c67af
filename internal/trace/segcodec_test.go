package trace_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/slicing/labelblock"
	"dynslice/internal/trace"
)

// Hostile summary sections that once made DecodeSegments allocate far
// more than their size before failing.
var (
	// A segment count of 1<<28 and nothing else: 2 GiB of segment
	// pointers.
	hugeSegmentCount = []byte{0x80, 0x80, 0x80, 0x80, 0x01}
	// One segment whose block bitset claims 1<<26 words: 512 MiB.
	hugeBlockBitset = []byte{0x01, 0x00, 0x01, 0x00, 0x00, 0x80, 0x80, 0x80, 0x20, 0x00}
)

// recordSegments runs srcLoop with small segments and returns the
// program and its encoded summary section.
func recordSegments(tb testing.TB) (*ir.Program, []byte) {
	tb.Helper()
	p, err := compile.Source(srcLoop)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(p, &buf, 4)
	if _, err := interp.Run(p, interp.Options{Sink: w}); err != nil {
		tb.Fatal(err)
	}
	if w.Err() != nil {
		tb.Fatal(w.Err())
	}
	if len(w.Segments()) < 2 {
		tb.Fatalf("want several segments, got %d", len(w.Segments()))
	}
	return p, trace.AppendSegments(nil, w.Segments())
}

// TestDecodeSegmentsRoundTrip: a real summary section decodes to the
// segments that were encoded.
func TestDecodeSegmentsRoundTrip(t *testing.T) {
	p, enc := recordSegments(t)
	segs, rest, err := trace.DecodeSegments(append(enc, 0xAB), len(p.Blocks))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, []byte{0xAB}) {
		t.Fatalf("remainder %x, want ab", rest)
	}
	if again := trace.AppendSegments(nil, segs); !bytes.Equal(again, enc) {
		t.Fatal("re-encoding the decoded segments changed the bytes")
	}
	if _, _, err := trace.DecodeSegments(enc, len(p.Blocks)+64); err == nil {
		t.Fatal("decoded block bitsets against the wrong block count")
	}
}

// TestDecodeSegmentsBoundedAlloc: the hostile inputs fail as corrupt
// after allocating next to nothing.
func TestDecodeSegmentsBoundedAlloc(t *testing.T) {
	p, _ := recordSegments(t)
	for _, c := range []struct {
		name  string
		data  []byte
		class string
	}{
		{"huge segment count", hugeSegmentCount, labelblock.ClassTruncated},
		{"huge block bitset", hugeBlockBitset, labelblock.ClassBadBlock},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := trace.DecodeSegments(c.data, len(p.Blocks))
		runtime.ReadMemStats(&after)
		var ce *labelblock.CorruptError
		if !errors.As(err, &ce) || ce.Class != c.class {
			t.Errorf("%s: error %v, want class %s", c.name, err, c.class)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", c.name, len(c.data), got)
		}
	}
}

// FuzzDecodeSegments feeds arbitrary bytes to the segment-summary
// decoder. Every input either fails with a classified
// *labelblock.CorruptError or decodes to segments that survive a
// re-encode and decode unchanged.
func FuzzDecodeSegments(f *testing.F) {
	p, enc := recordSegments(f)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{})
	f.Add(hugeSegmentCount)
	f.Add(hugeBlockBitset)

	f.Fuzz(func(t *testing.T, data []byte) {
		segs, _, err := trace.DecodeSegments(data, len(p.Blocks))
		if err != nil {
			var ce *labelblock.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("unclassified error %T: %v", err, err)
			}
			return
		}
		again, rest, err := trace.DecodeSegments(trace.AppendSegments(nil, segs), len(p.Blocks))
		if err != nil {
			t.Fatalf("re-encoded segments fail to decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("re-encoding left %d trailing bytes", len(rest))
		}
		if !reflect.DeepEqual(again, segs) {
			t.Fatal("re-encode and decode changed the segments")
		}
	})
}
