package trace_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/telemetry"
	"dynslice/internal/trace"
)

// TestDecoderRejectsCorruptStreams feeds damaged encodings to the decoder
// and requires an error (never a panic or silent success).
func TestDecoderRejectsCorruptStreams(t *testing.T) {
	p := prog(t, `
	func main() {
		var i = 0;
		while (i < 5) { i = i + 1; }
		print(i);
	}`)
	var buf bytes.Buffer
	w := trace.NewWriter(p, &buf, 0)
	if _, err := interp.Run(p, interp.Options{Sink: w}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	replayOK := func(data []byte) error {
		return trace.Replay(p, bytes.NewReader(data), &recorder{})
	}
	if err := replayOK(good); err != nil {
		t.Fatalf("pristine stream must replay: %v", err)
	}

	// Truncations at every prefix length must error (or hit a clean End
	// marker, which only the full stream contains).
	for cut := 1; cut < len(good)-1; cut += 7 {
		if err := replayOK(good[:cut]); err == nil {
			t.Fatalf("truncation at %d silently succeeded", cut)
		}
	}

	// A bogus block id must be rejected (prepended before the header, the
	// stream also fails the magic check; see the metrics test below for the
	// post-header variant).
	bogus := append([]byte{0xFF, 0xFF, 0x7F}, good...)
	if err := replayOK(bogus); err == nil {
		t.Fatal("bogus block id silently accepted")
	}
}

// TestReaderErrorCounters verifies that each decoder error path fires its
// classification counter, and that clean replays count records read.
func TestReaderErrorCounters(t *testing.T) {
	p := prog(t, `
	func main() {
		var i = 0;
		while (i < 5) { i = i + 1; }
		print(i);
	}`)
	var buf bytes.Buffer
	w := trace.NewWriter(p, &buf, 0)
	if _, err := interp.Run(p, interp.Options{Sink: w}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	replay := func(data []byte) (*telemetry.Registry, error) {
		reg := telemetry.New()
		m := trace.NewMetrics(reg)
		err := trace.ReplayWith(p, bytes.NewReader(data), &recorder{}, m)
		return reg, err
	}
	count := func(reg *telemetry.Registry, name string) int64 {
		return reg.Counter(name).Value()
	}

	// Pristine stream: blocks/stmts read match what the writer recorded,
	// and no error counter fires.
	reg, err := replay(good)
	if err != nil {
		t.Fatalf("pristine stream: %v", err)
	}
	if got := count(reg, "trace.read.blocks"); got != w.BlockExecutions() {
		t.Fatalf("blocks read = %d, want %d", got, w.BlockExecutions())
	}
	if count(reg, "trace.read.stmts") == 0 {
		t.Fatal("no statement records counted on a clean replay")
	}
	for _, n := range []string{"trace.read.err.truncated", "trace.read.err.bad_magic", "trace.read.err.bad_block"} {
		if count(reg, n) != 0 {
			t.Fatalf("counter %s fired on a clean replay", n)
		}
	}

	// Header shorter than HeaderSize: truncation.
	reg, err = replay(good[:trace.HeaderSize-2])
	if err == nil || count(reg, "trace.read.err.truncated") != 1 {
		t.Fatalf("short header: err=%v truncated=%d", err, count(reg, "trace.read.err.truncated"))
	}

	// Corrupted magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	reg, err = replay(bad)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("corrupt magic: err=%v", err)
	}
	if count(reg, "trace.read.err.bad_magic") != 1 {
		t.Fatal("bad_magic counter did not fire on corrupt magic")
	}

	// Unsupported version byte classifies as bad_magic too.
	bad = append([]byte(nil), good...)
	bad[len(trace.Magic)] = trace.Version + 1
	reg, err = replay(bad)
	if err == nil || count(reg, "trace.read.err.bad_magic") != 1 {
		t.Fatalf("bad version: err=%v bad_magic=%d", err, count(reg, "trace.read.err.bad_magic"))
	}

	// Out-of-range block id directly after the header.
	bad = append(append([]byte(nil), good[:trace.HeaderSize]...), 0xFF, 0xFF, 0x7F)
	reg, err = replay(bad)
	if err == nil || count(reg, "trace.read.err.bad_block") != 1 {
		t.Fatalf("bogus block id: err=%v bad_block=%d", err, count(reg, "trace.read.err.bad_block"))
	}

	// Overlong varint (10 continuation bytes) where a block record is
	// expected: malformed payload, classified as bad_record. Found by
	// FuzzTraceReader — the overflow error previously escaped the
	// counter taxonomy entirely.
	over := append([]byte(nil), good[:trace.HeaderSize]...)
	for i := 0; i < 10; i++ {
		over = append(over, 0x80)
	}
	over = append(over, 0x01)
	reg, err = replay(over)
	if err == nil || count(reg, "trace.read.err.bad_record") != 1 {
		t.Fatalf("varint overflow: err=%v bad_record=%d", err, count(reg, "trace.read.err.bad_record"))
	}

	// Truncation mid-record: every short prefix past the header must
	// classify as truncated (never silently succeed, never misclassify).
	for cut := trace.HeaderSize + 1; cut < len(good)-1; cut += 5 {
		reg, err = replay(good[:cut])
		if err == nil {
			t.Fatalf("truncation at %d silently succeeded", cut)
		}
		if count(reg, "trace.read.err.truncated") != 1 {
			t.Fatalf("truncation at %d not counted (err=%v)", cut, err)
		}
	}
}

// TestDecoderBoundsAddresses: a whole-stream decoder tracks the frame
// rule's watermark and rejects, as bad_record, any use, def or region
// address outside [GlobalBase, watermark). Address-indexed consumers —
// the FP and OPT builders behind a deferred build — rely on it: a 6-byte
// region length used to make them loop over 2^40 addresses.
func TestDecoderBoundsAddresses(t *testing.T) {
	p := prog(t, `
	func main() {
		var a[4];
		var x = 1;
		print(x + a[0]);
	}`)
	entry := p.Main.Entry()
	if len(entry.Stmts) < 3 || entry.Stmts[0].Op != ir.OpDeclArr || entry.Stmts[1].Op != ir.OpAssign {
		t.Fatalf("unexpected entry block %v", entry.Stmts)
	}
	base, wm := p.MainFrame()
	aAddr := base + p.Obj(entry.Stmts[0].Obj).Off
	xAddr := wm - 1 // any in-frame address will do for the def

	// stream encodes main's entry block: the region, x's def and print's
	// two uses, then whatever the remaining statements need.
	stream := func(regStart, regLen, def, use uint64) []byte {
		b := append([]byte(nil), trace.Magic[:]...)
		b = append(b, trace.Version)
		b = binary.AppendUvarint(b, uint64(entry.ID)+1)
		b = binary.AppendUvarint(b, regStart)
		b = binary.AppendUvarint(b, regLen)
		b = binary.AppendUvarint(b, def)
		b = binary.AppendUvarint(b, use)
		b = binary.AppendUvarint(b, uint64(aAddr))
		return b
	}
	okStart, okLen, okAddr := uint64(aAddr), uint64(4), uint64(xAddr)
	cases := []struct {
		name string
		data []byte
	}{
		{"region length 2^40", stream(okStart, 1<<40, okAddr, okAddr)},
		{"region past watermark", stream(uint64(wm)-2, 4, okAddr, okAddr)},
		{"region below GlobalBase", stream(3, 4, okAddr, okAddr)},
		{"def 2^40", stream(okStart, okLen, 1<<40, okAddr)},
		{"def at watermark", stream(okStart, okLen, uint64(wm), okAddr)},
		{"use below GlobalBase", stream(okStart, okLen, okAddr, uint64(ir.GlobalBase)-1)},
	}
	for _, c := range cases {
		reg := telemetry.New()
		sinks := trace.Multi{&recorder{}, fp.NewGraph(p), opt.NewGraph(p, opt.Full(), nil, nil)}
		err := trace.ReplayWith(p, bytes.NewReader(c.data), sinks, trace.NewMetrics(reg))
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("%s: err = %v, want an out-of-range address error", c.name, err)
		}
		if got := reg.Counter("trace.read.err.bad_record").Value(); got != 1 {
			t.Fatalf("%s: bad_record = %d, want 1", c.name, got)
		}
	}

	// The in-range prefix decodes: the failure above is the address, not
	// the hand encoding.
	d := trace.NewDecoder(p, bytes.NewReader(stream(okStart, okLen, okAddr, okAddr)), 0)
	if err := d.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.Next(); err != nil {
			t.Fatalf("event %d of the in-range stream: %v", i, err)
		}
	}
}

// dropFunc forwards a run's events to w, leaving out every block and
// statement of the function named fn.
type dropFunc struct {
	w   *trace.Writer
	fn  string
	off bool
}

func (d *dropFunc) Block(b *ir.Block) {
	if d.off = b.Fn.Name == d.fn; !d.off {
		d.w.Block(b)
	}
}

func (d *dropFunc) Stmt(s *ir.Stmt, uses, defs []int64) {
	if !d.off {
		d.w.Stmt(s, uses, defs)
	}
}

func (d *dropFunc) RegionDef(s *ir.Stmt, start, length int64) {
	if !d.off {
		d.w.RegionDef(s, start, length)
	}
}

func (d *dropFunc) End() { d.w.End() }

// streamSkipping encodes a run of p with the callee fn left out: each
// caller's continuation block follows its call block directly.
func streamSkipping(tb testing.TB, p *ir.Program, fn string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(p, &buf, 0)
	if _, err := interp.Run(p, interp.Options{Sink: &dropFunc{w: w, fn: fn}}); err != nil {
		tb.Fatal(err)
	}
	if w.Err() != nil {
		tb.Fatal(w.Err())
	}
	return buf.Bytes()
}

// TestDecoderChecksControlFlow: a whole-stream decoder checks each block
// record against the previous one. A stream that runs main's
// continuation right after its call block, skipping the callee, used to
// replay with a nil error and have the builders run the continuation in
// f's frame; it now fails as bad_block, as does a stream that does not
// start at main's entry. A mid-file decoder, which starts without the
// call history, still decodes the skipping stream.
func TestDecoderChecksControlFlow(t *testing.T) {
	p := prog(t, `func f() { print(1); return 0; } func main() { print(2); f(); return 0; }`)
	var buf bytes.Buffer
	w := trace.NewWriter(p, &buf, 0)
	if _, err := interp.Run(p, interp.Options{Sink: w}); err != nil {
		t.Fatal(err)
	}
	if err := trace.Replay(p, bytes.NewReader(buf.Bytes()), &recorder{}); err != nil {
		t.Fatalf("pristine stream must replay: %v", err)
	}

	skip := streamSkipping(t, p, "f")
	var f *ir.Func
	for _, fn := range p.Funcs {
		if fn.Name == "f" {
			f = fn
		}
	}
	startInF := binary.AppendUvarint(append([]byte(nil), skip[:trace.HeaderSize]...), uint64(f.Entry().ID)+1)
	for _, c := range []struct {
		name string
		data []byte
	}{{"callee skipped", skip}, {"starts in f", startInF}} {
		reg := telemetry.New()
		sinks := trace.Multi{&recorder{}, fp.NewGraph(p), opt.NewGraph(p, opt.Full(), nil, nil)}
		err := trace.ReplayWith(p, bytes.NewReader(c.data), sinks, trace.NewMetrics(reg))
		if err == nil || !strings.Contains(err.Error(), "cannot run after") {
			t.Fatalf("%s: err = %v, want a control-flow error", c.name, err)
		}
		if got := reg.Counter("trace.read.err.bad_block").Value(); got != 1 {
			t.Fatalf("%s: bad_block = %d, want 1", c.name, got)
		}
	}

	d := trace.NewDecoder(p, bytes.NewReader(skip[trace.HeaderSize:]), 0)
	for {
		ev, err := d.Next()
		if err != nil {
			t.Fatalf("mid-file decoder: %v", err)
		}
		if ev.Kind == trace.EvEnd {
			break
		}
	}
}
