package snapshot_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	slicer "dynslice"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/labelblock"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/snapshot"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/trace"
)

// holeSrc leaves never-defined addresses inside the last-definition
// table: main's frame has a slot for h, which only an untaken branch
// writes, between slots that are written.
const holeSrc = `
var g = 0;
var arr[3];

func f(v) {
	arr[v % 3] = v;
	return v * 2;
}

func main() {
	var a = 4;
	if (g == 1) {
		var h = 5;
		a = h;
	}
	var b = f(a);
	g = b + a;
	print(g);
}`

// lastDefGraph is the criterion-resolution view shared by FP and OPT.
type lastDefGraph struct {
	name  string
	def   func(addr int64) (any, bool)
	slice func(addr int64) error
}

func fpView(name string, g *fp.Graph) lastDefGraph {
	return lastDefGraph{name: name,
		def: func(a int64) (any, bool) {
			s, ts, ok := g.LastDefOf(a)
			return [2]int64{int64(s), ts}, ok
		},
		slice: func(a int64) error { _, _, err := g.Slice(slicing.AddrCriterion(a)); return err },
	}
}

func optView(name string, g *opt.Graph) lastDefGraph {
	return lastDefGraph{name: name,
		def: func(a int64) (any, bool) {
			d, ok := g.LastDefOf(a)
			return d, ok
		},
		slice: func(a int64) error { _, _, err := g.Slice(slicing.AddrCriterion(a)); return err },
	}
}

// TestLastDefEdges: FP and OPT resolve criteria through one dense
// last-definition table, built or snapshot-loaded. Addresses outside it
// — negative, below GlobalBase, a never-defined hole, one past the
// table, far beyond it — are "never defined" errors (querylog class
// bad_criterion), never panics, and every address resolves identically
// on the built and the loaded graph.
func TestLastDefEdges(t *testing.T) {
	prog, err := slicer.Compile(holeSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.IR()
	fpG := fp.NewGraph(p)
	optG := opt.NewGraph(p, opt.Full(), nil, nil)
	res, err := interp.Run(p, interp.Options{Sink: trace.Multi{fpG, optG}})
	if err != nil {
		t.Fatal(err)
	}
	fpL, err := fp.LoadSnapshot(p, fpG.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	optSec, err := optG.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	optL, err := opt.LoadSnapshot(p, optSec)
	if err != nil {
		t.Fatal(err)
	}

	// The table ends one past the highest defined address; a hole is any
	// undefined address inside it.
	end, hole := int64(0), int64(-1)
	for a := int64(0); a <= res.Watermark; a++ {
		if _, _, ok := fpG.LastDefOf(a); ok {
			end = a + 1
		}
	}
	for a := ir.GlobalBase; a < end; a++ {
		if _, _, ok := fpG.LastDefOf(a); !ok {
			hole = a
			break
		}
	}
	if hole < 0 {
		t.Fatal("program leaves no never-defined address inside the table")
	}

	pairs := [][2]lastDefGraph{
		{fpView("fp built", fpG), fpView("fp loaded", fpL)},
		{optView("opt built", optG), optView("opt loaded", optL)},
	}
	for _, pair := range pairs {
		for _, g := range pair {
			for _, a := range []int64{-1, 0, ir.GlobalBase - 1, hole, end, 1 << 50} {
				if _, ok := g.def(a); ok {
					t.Errorf("%s: address %d resolves", g.name, a)
				}
				err := g.slice(a)
				if got := querylog.Classify(err); got != "bad_criterion" {
					t.Errorf("%s: slicing address %d: %v (class %q), want bad_criterion", g.name, a, err, got)
				}
			}
		}
		built, loaded := pair[0], pair[1]
		for a := int64(-1); a <= end+1; a++ {
			d1, ok1 := built.def(a)
			d2, ok2 := loaded.def(a)
			if ok1 != ok2 || d1 != d2 {
				t.Errorf("address %d: %s resolves (%v, %t), %s (%v, %t)", a, built.name, d1, ok1, loaded.name, d2, ok2)
			}
		}
	}

	// The façade classifies the same way, on a fresh build and on a
	// snapshot load.
	dir := t.TempDir()
	for _, want := range []string{"build", "snapshot"} {
		rec, err := prog.Record(slicer.RunOptions{Snapshot: slicer.SnapshotOptions{Dir: dir, Read: true, Write: true}})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Source() != want {
			t.Fatalf("recording source %q, want %q", rec.Source(), want)
		}
		for _, s := range []*slicer.Slicer{rec.FP(), rec.OPT()} {
			_, err := s.SliceAddr(-1)
			if got := querylog.Classify(err); got != "bad_criterion" {
				t.Errorf("%s: SliceAddr(-1): %v (class %q), want bad_criterion", want, err, got)
			}
		}
		rec.Close()
	}
}

// lastDefOffset returns the offset of the last-definition slot count in
// an FP (isOPT false) or OPT section.
func lastDefOffset(t testing.TB, sec []byte, isOPT bool) int {
	t.Helper()
	off := 0
	next := func() uint64 {
		v, n := binary.Uvarint(sec[off:])
		if n <= 0 {
			t.Fatalf("section header ends at byte %d", off)
		}
		off += n
		return v
	}
	if !isOPT {
		next() // timestamp counter
		next() // data pairs
		next() // control pairs
		return off
	}
	next() // config bits
	for nPaths := next(); nPaths > 0; nPaths-- {
		for n := next(); n > 0; n-- {
			next()
		}
	}
	next() // timestamp counter
	return off
}

// TestLastDefSectionBoundedAlloc: a section whose last-definition table
// claims 2^40 slots fails as truncated before allocating for them — the
// loader checks the count against the bytes left.
func TestLastDefSectionBoundedAlloc(t *testing.T) {
	_, raw := buildFPSnapshot(t, snapshot.Key{})
	prog, err := slicer.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.IR()
	for _, c := range []struct {
		name  string
		id    uint32
		isOPT bool
		load  func([]byte) error
	}{
		{"fp", 3, false, func(b []byte) error { _, err := fp.LoadSnapshot(p, b); return err }},
		{"opt", 4, true, func(b []byte) error { _, err := opt.LoadSnapshot(p, b); return err }},
	} {
		sec := section(t, raw, c.id)
		off := lastDefOffset(t, sec, c.isOPT)
		huge := binary.AppendUvarint(append([]byte(nil), sec[:off]...), 1<<40)
		huge = append(huge, 1, 2, 3, 4)
		// The baseline: the same header with an empty table, which fails
		// further on. Its allocation (OPT rebuilds its static graph before
		// the table) is what the huge claim may not exceed by much.
		empty := binary.AppendUvarint(append([]byte(nil), sec[:off]...), 0)
		alloc := func(data []byte) (uint64, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.load(data)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, err
		}
		base, _ := alloc(empty)
		got, err := alloc(huge)
		var ce *labelblock.CorruptError
		if !errors.As(err, &ce) || ce.Class != labelblock.ClassTruncated {
			t.Errorf("%s: error %v, want class %s", c.name, err, labelblock.ClassTruncated)
		}
		if got > base+1<<16 {
			t.Errorf("%s: a 2^40-slot claim allocated %d bytes (an empty table: %d)", c.name, got, base)
		}
	}
}

// FuzzSnapshotLoad feeds mutated FP and OPT section payloads, seeded from
// the sections of the golden tiny.dysnap and of a tinySrc image that
// carries FP, to fp.LoadSnapshot and opt.LoadSnapshot. Every input either fails with a classified
// *labelblock.CorruptError or loads into a graph whose last-definition
// lookups around the whole table answer without panicking.
func FuzzSnapshotLoad(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "tiny.dysnap"))
	if err != nil {
		f.Fatal(err)
	}
	prog, err := slicer.Compile(tinySrc)
	if err != nil {
		f.Fatal(err)
	}
	p := prog.IR()
	_, fpRaw := buildFPSnapshot(f, snapshot.Key{})
	fpSec, optSec := section(f, fpRaw, 3), section(f, raw, 4)
	f.Add(false, fpSec)
	f.Add(true, optSec)
	f.Add(false, fpSec[:len(fpSec)/2])
	f.Add(true, optSec[:len(optSec)/2])
	f.Add(false, []byte{})

	f.Fuzz(func(t *testing.T, isOPT bool, data []byte) {
		var lastDef func(int64)
		var err error
		if isOPT {
			var g *opt.Graph
			if g, err = opt.LoadSnapshot(p, data); err == nil {
				lastDef = func(a int64) { g.LastDefOf(a) }
			}
		} else {
			var g *fp.Graph
			if g, err = fp.LoadSnapshot(p, data); err == nil {
				lastDef = func(a int64) { g.LastDefOf(a) }
			}
		}
		if err != nil {
			var ce *labelblock.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("unclassified error %T: %v", err, err)
			}
			return
		}
		// The table holds at most one slot per section byte.
		for a := int64(-1); a <= int64(len(data))+1; a++ {
			lastDef(a)
		}
	})
}
