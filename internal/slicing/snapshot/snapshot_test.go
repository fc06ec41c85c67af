package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	slicer "dynslice"
	"dynslice/internal/interp"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/labelblock"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/snapshot"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/tiny.dysnap from the current format")

// tinySrc is the checked-in golden snapshot's program: small enough that
// the .dysnap file stays a few kilobytes, rich enough (loop, call, array,
// control dependence) that every section has content.
const tinySrc = `
var out = 0;
var a[4];

func bump(v) {
	a[v % 4] = a[v % 4] + v;
	return v + 1;
}

func main() {
	var i = 0;
	while (i < 6) {
		if (i % 2 == 0) {
			out = out + bump(i);
		}
		i = i + 1;
	}
	print(out);
}`

// tinyInput is the golden recording's input.
var tinyInput = []int64{7, 3, 5}

// buildSnapshot records tinySrc with the snapshot cache enabled and
// returns the single .dysnap file it produced: the façade's image, which
// carries OPT and no FP section.
func buildSnapshot(t testing.TB) (path string, raw []byte) {
	t.Helper()
	dir := t.TempDir()
	p, err := slicer.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Record(slicer.RunOptions{
		Input:    tinyInput,
		Snapshot: slicer.SnapshotOptions{Dir: dir, Write: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
	files, err := filepath.Glob(filepath.Join(dir, "*.dysnap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files = %v (err %v), want exactly one", files, err)
	}
	raw, err = os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return files[0], raw
}

// tinyRun runs tinySrc once into fresh FP and OPT builders and a trace
// writer: the build path a decoded image must agree with.
func tinyRun(t testing.TB) (*slicer.Program, *interp.Result, *snapshot.Image) {
	t.Helper()
	prog, err := slicer.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.IR()
	fpG := fp.NewGraph(p)
	optG := opt.NewGraph(p, opt.Full(), nil, nil)
	tw := trace.NewWriter(p, io.Discard, 4)
	res, err := interp.Run(p, interp.Options{Input: tinyInput, Sink: trace.Multi{tw, fpG, optG}})
	if err != nil {
		t.Fatal(err)
	}
	return prog, res, &snapshot.Image{
		Output: res.Output, Steps: res.Steps, Return: res.ReturnValue,
		Segs: tw.Segments(), FP: fpG, OPT: optG,
	}
}

// buildFPSnapshot writes a tinySrc image under key that carries an FP
// section, as the benchmark harnesses write them (the façade's cache
// never does), and returns its path and bytes.
func buildFPSnapshot(t testing.TB, key snapshot.Key) (path string, raw []byte) {
	t.Helper()
	_, _, img := tinyRun(t)
	path = filepath.Join(t.TempDir(), "fp.dysnap")
	if _, err := snapshot.Write(path, key, img); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// readBack loads a snapshot file through the real Read path with the
// given key (recovered from the intact file's meta section — the façade
// derives it from hashes; the format test only needs Read to accept its
// own output).
func readBack(t *testing.T, path string, key snapshot.Key) (*snapshot.Image, error) {
	t.Helper()
	p, err := slicer.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot.Read(path, p.IR(), key)
}

// keyOf parses the documented container layout to pull the key out of
// the meta section.
func keyOf(t testing.TB, raw []byte) snapshot.Key {
	t.Helper()
	meta := section(t, raw, 1)
	var key snapshot.Key
	copy(key.Program[:], meta[0:32])
	copy(key.Input[:], meta[32:64])
	copy(key.Config[:], meta[64:96])
	return key
}

// section returns the payload byte range of a section id via the
// directory (offset, length within raw).
func section(t testing.TB, raw []byte, id uint32) []byte {
	t.Helper()
	sec, ok := findSection(raw, id)
	if !ok {
		t.Fatalf("section %d not found", id)
	}
	return sec
}

func findSection(raw []byte, id uint32) ([]byte, bool) {
	n := binary.LittleEndian.Uint32(raw[5:9])
	for i := 0; i < int(n); i++ {
		e := raw[9+i*24:]
		if binary.LittleEndian.Uint32(e[0:4]) == id {
			off := binary.LittleEndian.Uint64(e[4:12])
			ln := binary.LittleEndian.Uint64(e[12:20])
			return raw[off : off+ln], true
		}
	}
	return nil, false
}

// TestDeterministicBytes: identical runs serialize to identical bytes —
// the property the golden file (and content addressing) depends on.
func TestDeterministicBytes(t *testing.T) {
	_, a := buildSnapshot(t)
	_, b := buildSnapshot(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical recordings produced different snapshot bytes")
	}
}

// TestGoldenSnapshot guards the on-disk format: the checked-in
// testdata/tiny.dysnap must stay byte-identical to what the current code
// writes (run with -update after an intentional format change — which
// must also bump snapshot.Version), and must still load and answer. The
// façade writes OPT alone: the golden file has no FP section.
func TestGoldenSnapshot(t *testing.T) {
	golden := filepath.Join("testdata", "tiny.dysnap")
	_, raw := buildSnapshot(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/slicing/snapshot -update` to create it)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("snapshot bytes drifted from %s (%d vs %d bytes); if the format change is intentional, bump snapshot.Version and re-run with -update",
			golden, len(raw), len(want))
	}
	img, err := readBack(t, golden, keyOf(t, want))
	if err != nil {
		t.Fatalf("golden snapshot does not load: %v", err)
	}
	if img.OPT == nil || len(img.Output) == 0 {
		t.Fatal("golden snapshot loaded incomplete")
	}
	if _, ok := findSection(want, 3); ok || img.FP != nil {
		t.Fatal("the façade's snapshot carries an FP section")
	}
}

// TestSectionCorruption flips one byte inside each section's payload of
// an image that carries all four, and expects a classified checksum
// failure; structural damage to the header and directory classifies too.
// Nothing may panic or load silently.
func TestSectionCorruption(t *testing.T) {
	path, raw := buildFPSnapshot(t, snapshot.Key{Program: [32]byte{1}})
	key := keyOf(t, raw) // the key comes from intact bytes, mutations notwithstanding
	load := func(t *testing.T, mutated []byte) error {
		t.Helper()
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readBack(t, path, key)
		return err
	}
	clone := func() []byte { return append([]byte(nil), raw...) }

	for id := uint32(1); id <= 4; id++ {
		t.Run(map[uint32]string{1: "meta", 2: "segs", 3: "fp", 4: "opt"}[id], func(t *testing.T) {
			mutated := clone()
			sec := section(t, mutated, id)
			if len(sec) == 0 {
				t.Skip("empty section")
			}
			sec[len(sec)/2] ^= 0x20
			err := load(t, mutated)
			if err == nil {
				t.Fatal("corrupt section loaded cleanly")
			}
			if got := snapshot.Classify(err); got != snapshot.ClassBadChecksum {
				t.Fatalf("Classify = %q (%v), want %q", got, err, snapshot.ClassBadChecksum)
			}
		})
	}
	t.Run("magic", func(t *testing.T) {
		mutated := clone()
		mutated[0] ^= 0xff
		if got := snapshot.Classify(load(t, mutated)); got != labelblock.ClassBadMagic {
			t.Fatalf("Classify = %q, want %q", got, labelblock.ClassBadMagic)
		}
	})
	t.Run("version", func(t *testing.T) {
		for _, v := range []byte{snapshot.Version - 1, snapshot.Version + 1} {
			mutated := clone()
			mutated[4] = v
			if got := snapshot.Classify(load(t, mutated)); got != labelblock.ClassBadVersion {
				t.Fatalf("version %d: Classify = %q, want %q", v, got, labelblock.ClassBadVersion)
			}
		}
	})
	t.Run("directory", func(t *testing.T) {
		mutated := clone()
		// Push a section's offset past EOF.
		binary.LittleEndian.PutUint64(mutated[9+4:], uint64(len(mutated))*2)
		if got := snapshot.Classify(load(t, mutated)); got != labelblock.ClassTruncated {
			t.Fatalf("Classify = %q, want %q", got, labelblock.ClassTruncated)
		}
	})
	t.Run("truncate-every-prefix", func(t *testing.T) {
		// Every prefix must fail classified, never panic. Step through a
		// spread of cut points including all short ones.
		for cut := 0; cut < len(raw); cut += 1 + cut/16 {
			err := load(t, clone()[:cut])
			if err == nil {
				t.Fatalf("prefix of %d bytes loaded cleanly", cut)
			}
			if snapshot.Classify(err) == "" {
				t.Fatalf("prefix of %d bytes: unclassified error %v", cut, err)
			}
		}
	})
	t.Run("key-mismatch", func(t *testing.T) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := slicer.Compile(tinySrc)
		if err != nil {
			t.Fatal(err)
		}
		wrong := key
		wrong.Input[0] ^= 0xff
		_, err = snapshot.Read(path, p.IR(), wrong)
		if got := snapshot.Classify(err); got != snapshot.ClassKeyMismatch {
			t.Fatalf("Classify = %q (%v), want %q", got, err, snapshot.ClassKeyMismatch)
		}
	})
}

// TestCacheKeySensitivity: each component digest reacts to its input.
func TestCacheKeySensitivity(t *testing.T) {
	p1, err := slicer.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := slicer.Compile(tinySrc + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if snapshot.HashProgram(p1.IR()) == snapshot.HashProgram(p2.IR()) {
		t.Fatal("program digest ignores source changes")
	}
	if snapshot.HashProgram(p1.IR()) != snapshot.HashProgram(p1.IR()) {
		t.Fatal("program digest is unstable")
	}
	if snapshot.HashInput([]int64{1}, 0) == snapshot.HashInput([]int64{2}, 0) {
		t.Fatal("input digest ignores values")
	}
	if snapshot.HashInput([]int64{1}, 0) == snapshot.HashInput([]int64{1}, 100) {
		t.Fatal("input digest ignores the step budget")
	}
	if snapshot.HashConfig("a") == snapshot.HashConfig("b") {
		t.Fatal("config digest ignores the fingerprint")
	}
}

// FuzzSnapshotRead feeds whole .dysnap byte strings — header, directory,
// meta, segments, the optional FP section and OPT — to snapshot.Decode,
// seeded with the golden tiny.dysnap (no FP section) and a tinySrc image
// that carries FP. Every input either fails with a classified
// *labelblock.CorruptError or decodes into graphs that answer every
// address of the golden run exactly as graphs built from that run do.
func FuzzSnapshotRead(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "tiny.dysnap"))
	if err != nil {
		f.Fatal(err)
	}
	key := keyOf(f, golden)
	_, withFP := buildFPSnapshot(f, key)
	f.Add(golden)
	f.Add(withFP)
	f.Add(golden[:len(golden)/2])

	prog, res, built := tinyRun(f)
	p := prog.IR()
	type answer struct {
		slice *slicing.Slice
		class string
	}
	ask := func(g slicing.Slicer, a int64) answer {
		sl, _, err := g.Slice(slicing.AddrCriterion(a))
		return answer{sl, querylog.Classify(err)}
	}
	want := make([]answer, res.Watermark+2)
	answered := 0
	for a := range want {
		want[a] = ask(built.FP, int64(a))
		if want[a].slice != nil {
			answered++
		}
		if o := ask(built.OPT, int64(a)); o.class != want[a].class || (o.slice != nil && !o.slice.Equal(want[a].slice)) {
			f.Fatalf("address %d: built OPT and FP disagree", a)
		}
	}
	if answered == 0 {
		f.Fatal("no address of the golden run has a slice")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := snapshot.Decode(data, p, key)
		if err != nil {
			var ce *labelblock.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("unclassified error %T: %v", err, err)
			}
			return
		}
		graphs := map[string]slicing.Slicer{"OPT": img.OPT}
		if img.FP != nil {
			graphs["FP"] = img.FP
		}
		for name, g := range graphs {
			for a := range want {
				got := ask(g, int64(a))
				if got.class != want[a].class || (got.slice != nil && !got.slice.Equal(want[a].slice)) {
					t.Fatalf("decoded %s answers address %d with (%v, %q), the build path with (%v, %q)",
						name, a, got.slice, got.class, want[a].slice, want[a].class)
				}
			}
		}
	})
}
