package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"dynslice/internal/interp"
	"dynslice/internal/trace"
)

// failAfter accepts limit bytes, then fails every write with a fresh
// error, so the test can tell the first error from later ones.
type failAfter struct {
	limit int
	got   []byte
	errs  []error
}

func (f *failAfter) Write(p []byte) (int, error) {
	room := max(f.limit-len(f.got), 0)
	if len(p) <= room {
		f.got = append(f.got, p...)
		return len(p), nil
	}
	f.got = append(f.got, p[:room]...)
	err := fmt.Errorf("write error %d", len(f.errs))
	f.errs = append(f.errs, err)
	return room, err
}

// TestWriterWriteErrors fails the output after k bytes, for k in the
// header, around the 64 KiB buffer's first flush (at and inside
// multi-byte varints) and at the end of the stream. The writer must not
// panic, must hand the output exactly the good stream's first k bytes,
// and Err must return the first error after End.
func TestWriterWriteErrors(t *testing.T) {
	p := prog(t, `
	func main() {
		var a[400];
		var i = 0;
		while (i < 6000) {
			a[i % 400] = a[(i * 7) % 400] + i;
			i = i + 1;
		}
		print(a[3]);
	}`)
	var good bytes.Buffer
	run := func(w *trace.Writer) {
		t.Helper()
		if _, err := interp.Run(p, interp.Options{Sink: w}); err != nil {
			t.Fatal(err)
		}
	}
	gw := trace.NewWriter(p, &good, 64)
	run(gw)
	if gw.Err() != nil {
		t.Fatal(gw.Err())
	}
	stream := good.Bytes()
	const bufSize = 1 << 16
	if len(stream) < 2*bufSize {
		t.Fatalf("stream is %d bytes, want at least two buffers", len(stream))
	}
	// Varint boundaries, so that the test knows which k cut a varint.
	boundary := map[int]bool{trace.HeaderSize: true}
	for off := trace.HeaderSize; off < len(stream); {
		_, n := binary.Uvarint(stream[off:])
		if n <= 0 {
			t.Fatalf("bad varint at %d", off)
		}
		off += n
		boundary[off] = true
	}

	ks := []int{0, 1, trace.HeaderSize, len(stream) - 1}
	for k := bufSize - 24; k <= bufSize+24; k++ {
		ks = append(ks, k)
	}
	midVarint := 0
	for _, k := range ks {
		if !boundary[k] && k > trace.HeaderSize {
			midVarint++
		}
		f := &failAfter{limit: k}
		w := trace.NewWriter(p, f, 64)
		run(w)
		if len(f.errs) == 0 {
			t.Fatalf("k=%d: the output never failed", k)
		}
		if w.Err() != f.errs[0] {
			t.Errorf("k=%d: Err() = %v, want the first error %v", k, w.Err(), f.errs[0])
		}
		if !bytes.Equal(f.got, stream[:k]) {
			t.Errorf("k=%d: the output took %d bytes that are not the stream's first %d", k, len(f.got), k)
		}
	}
	if midVarint == 0 {
		t.Fatal("no k fell inside a varint")
	}

	// An output that never fails gets the whole stream.
	f := &failAfter{limit: len(stream)}
	w := trace.NewWriter(p, f, 64)
	run(w)
	if w.Err() != nil || !bytes.Equal(f.got, stream) {
		t.Fatalf("healthy output: err %v, %d of %d bytes", w.Err(), len(f.got), len(stream))
	}
}
