package labelblock

import (
	"bufio"
	"bytes"
	"math/rand"
	"testing"
)

func collect(l *List) []Pair { return l.Pairs(nil) }

func linearFind(pairs []Pair, tu int64) (int64, bool) {
	for _, p := range pairs {
		if p.Tu == tu {
			return p.Td, true
		}
	}
	return 0, false
}

func TestBlockRoundTrip(t *testing.T) {
	pairs := make([]Pair, 0, BlockSize)
	aux := make([]int32, 0, BlockSize)
	tu := int64(100)
	for i := 0; i < BlockSize; i++ {
		tu += int64(1 + i%7)
		pairs = append(pairs, Pair{Td: tu - int64(i*3), Tu: tu})
		aux = append(aux, int32(i*11-40))
	}
	b := EncodeBlock(nil, pairs, aux)
	if b.N != BlockSize || b.FirstTu != pairs[0].Tu || b.LastTu != pairs[len(pairs)-1].Tu {
		t.Fatalf("header mismatch: %+v", b)
	}
	got, gotAux := b.Decode(nil, nil)
	if len(got) != len(pairs) {
		t.Fatalf("decode len %d want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i] != pairs[i] || gotAux[i] != aux[i] {
			t.Fatalf("entry %d: got %v/%d want %v/%d", i, got[i], gotAux[i], pairs[i], aux[i])
		}
	}
	for i, p := range pairs {
		td, a, _, ok := b.Find(p.Tu)
		if !ok || td != p.Td || a != aux[i] {
			t.Fatalf("Find(%d) = %d,%d,%v want %d,%d", p.Tu, td, a, ok, p.Td, aux[i])
		}
	}
	if _, _, _, ok := b.Find(pairs[0].Tu - 1); ok {
		t.Fatal("found missing tu below range")
	}
	if _, _, _, ok := b.Find(pairs[0].Tu + 1); ok {
		t.Fatal("found missing tu inside range")
	}
}

func TestBlockNegativeTd(t *testing.T) {
	// Tombstones use Td = -1; zig-zag must round-trip them.
	pairs := []Pair{{Td: -1, Tu: 5}, {Td: 3, Tu: 9}, {Td: -1, Tu: 12}}
	b := EncodeBlock(nil, pairs, nil)
	got, _ := b.Decode(nil, nil)
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("entry %d: got %v want %v", i, got[i], pairs[i])
		}
	}
}

func TestListAppendFindAcrossBlocks(t *testing.T) {
	l := NewList(false)
	n := BlockSize*3 + 17
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		p := Pair{Td: int64(i * 2), Tu: int64(i*4 + 1)}
		l.Append(nil, p, 0)
		pairs = append(pairs, p)
	}
	if len(l.Blocks()) != 3 {
		t.Fatalf("blocks = %d want 3", len(l.Blocks()))
	}
	if l.Len() != n {
		t.Fatalf("Len = %d want %d", l.Len(), n)
	}
	for _, p := range pairs {
		td, _, _, ok := l.Find(p.Tu)
		if !ok || td != p.Td {
			t.Fatalf("Find(%d) = %d,%v want %d", p.Tu, td, ok, p.Td)
		}
	}
	if _, _, _, ok := l.Find(2); ok {
		t.Fatal("found absent tu")
	}
	got := collect(&l)
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("Pairs()[%d] = %v want %v", i, got[i], pairs[i])
		}
	}
}

func TestListStraddleAndRepack(t *testing.T) {
	l := NewList(false)
	// Fill one block [1000, ...], then append stragglers below FirstTu.
	for i := 0; i < BlockSize; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: 1000 + int64(i)}, 0)
	}
	// Out-of-order stragglers (suspended superblock resuming).
	for i := 0; i < BlockSize; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: int64(i + 1)}, 0)
	}
	l.Seal(false)
	if td, _, _, ok := l.Find(5); !ok || td != 4 {
		t.Fatalf("straddle Find(5) = %d,%v want 4,true", td, ok)
	}
	if td, _, _, ok := l.Find(1005); !ok || td != 5 {
		t.Fatalf("straddle Find(1005) = %d,%v want 5,true", td, ok)
	}
	l.Repack(nil, false)
	if td, _, _, ok := l.Find(5); !ok || td != 4 {
		t.Fatalf("post-repack Find(5) = %d,%v", td, ok)
	}
	if td, _, _, ok := l.Find(1005); !ok || td != 5 {
		t.Fatalf("post-repack Find(1005) = %d,%v", td, ok)
	}
	got := collect(&l)
	if len(got) != 2*BlockSize {
		t.Fatalf("len %d want %d", len(got), 2*BlockSize)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Tu <= got[i-1].Tu {
			t.Fatalf("not sorted after repack at %d: %v, %v", i, got[i-1], got[i])
		}
	}
}

func TestListDedupe(t *testing.T) {
	l := NewList(false)
	l.Append(nil, Pair{Td: 1, Tu: 10}, 0)
	l.Append(nil, Pair{Td: 1, Tu: 10}, 0)
	l.Append(nil, Pair{Td: 2, Tu: 5}, 0) // out of order
	l.Append(nil, Pair{Td: 2, Tu: 5}, 0)
	l.Seal(true)
	if l.Len() != 2 {
		t.Fatalf("Len after dedupe = %d want 2", l.Len())
	}
	if td, _, _, ok := l.Find(5); !ok || td != 2 {
		t.Fatalf("Find(5) = %d,%v", td, ok)
	}
	if td, _, _, ok := l.Find(10); !ok || td != 1 {
		t.Fatalf("Find(10) = %d,%v", td, ok)
	}
}

func TestListSplit(t *testing.T) {
	l := NewList(false)
	n := BlockSize*2 + 40
	for i := 0; i < n; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: int64(i + 1)}, 0)
	}
	cut := int64(BlockSize + 10) // mid first... actually mid second block
	out := l.Split(nil, cut)
	// Everything with Tu >= cut moved out.
	var moved []Pair
	for i := range out {
		moved, _ = out[i].Decode(moved, nil)
	}
	kept := collect(&l)
	if len(kept)+len(moved) != n {
		t.Fatalf("split lost pairs: %d + %d != %d", len(kept), len(moved), n)
	}
	if l.Len() != len(kept) {
		t.Fatalf("Len %d != kept %d", l.Len(), len(kept))
	}
	for _, p := range kept {
		if p.Tu >= cut {
			t.Fatalf("kept pair %v past cut %d", p, cut)
		}
	}
	for _, p := range moved {
		if p.Tu < cut {
			t.Fatalf("moved pair %v before cut %d", p, cut)
		}
	}
	if td, _, _, ok := FindBlocks(out, cut); !ok || td != cut-1 {
		t.Fatalf("FindBlocks(cut) = %d,%v", td, ok)
	}
	if td, _, _, ok := l.Find(5); !ok || td != 4 {
		t.Fatalf("resident Find(5) = %d,%v", td, ok)
	}
}

func TestListSplitShortTailStraddler(t *testing.T) {
	// A straggler landing in a *short* tail after a block has sealed never
	// sets flagStraddle (that only happens when a full tail fails to
	// seal). Split must detect the overlap anyway, or the tail-derived
	// blocks are appended after the moved sealed blocks and the flushed
	// sequence is unsorted and overlapping — FindBlocks then misses the
	// straggler's pair permanently.
	l := NewList(false)
	for i := 0; i < BlockSize; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: 1100 + int64(i)}, 0)
	}
	// Short tail: one straggler below the sealed range, one past it.
	l.Append(nil, Pair{Td: 42, Tu: 1050}, 0)
	l.Append(nil, Pair{Td: 7, Tu: 1300}, 0)

	out := l.Split(nil, 1000) // everything is past the cut and moves out
	if l.Len() != 0 {
		t.Fatalf("resident Len = %d want 0", l.Len())
	}
	for i := 1; i < len(out); i++ {
		if out[i].FirstTu <= out[i-1].LastTu {
			t.Fatalf("blocks overlap at %d: [%d..%d] then [%d..%d]",
				i, out[i-1].FirstTu, out[i-1].LastTu, out[i].FirstTu, out[i].LastTu)
		}
	}
	for _, c := range []struct{ tu, td int64 }{{1050, 42}, {1100, 0}, {1227, 127}, {1300, 7}} {
		td, _, _, ok := FindBlocks(out, c.tu)
		if !ok || td != c.td {
			t.Fatalf("FindBlocks(%d) = %d,%v want %d,true", c.tu, td, ok, c.td)
		}
	}
}

func TestWriteReadBlocks(t *testing.T) {
	l := NewList(true)
	n := BlockSize + 30
	for i := 0; i < n; i++ {
		l.Append(nil, Pair{Td: int64(i * 3), Tu: int64(i*3 + 2)}, int32(i%5))
	}
	blocks := l.Split(nil, 0)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteBlocks(bw, blocks); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := ReadBlocks(bufio.NewReader(&buf), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("blocks %d want %d", len(got), len(blocks))
	}
	var wantPairs, gotPairs []Pair
	var wantAux, gotAux []int32
	for i := range blocks {
		wantPairs, wantAux = blocks[i].Decode(wantPairs, wantAux)
		gotPairs, gotAux = got[i].Decode(gotPairs, gotAux)
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("pairs %d want %d", len(gotPairs), len(wantPairs))
	}
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] || gotAux[i] != wantAux[i] {
			t.Fatalf("entry %d: %v/%d want %v/%d", i, gotPairs[i], gotAux[i], wantPairs[i], wantAux[i])
		}
	}
}

func TestArenaRecycling(t *testing.T) {
	ar := NewArena()
	l := NewList(false)
	for i := 0; i < BlockSize*10; i++ {
		l.Append(ar, Pair{Td: int64(i), Tu: int64(i)}, 0)
	}
	if ar.AllocBytes() <= 0 {
		t.Fatal("arena recorded no allocations")
	}
	// Recycled tails mean far fewer than 10 tail arrays were allocated.
	if got := ar.TailAllocs(); got > 2 {
		t.Fatalf("tail allocs = %d, free list not recycling", got)
	}
	for i := 0; i < BlockSize*10; i++ {
		if td, _, _, ok := l.Find(int64(i)); !ok || td != int64(i) {
			t.Fatalf("Find(%d) = %d,%v", i, td, ok)
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	// A loop-like dependence stream (small regular deltas) must compress
	// far below 16 bytes/pair.
	l := NewList(false)
	n := BlockSize * 8
	for i := 0; i < n; i++ {
		tu := int64(i*7 + 3)
		l.Append(nil, Pair{Td: tu - 5, Tu: tu}, 0)
	}
	flat := int64(n * 16)
	if got := l.MemBytes(); got*2 > flat {
		t.Fatalf("MemBytes = %d, want < half of flat pairs' %d", got, flat)
	}
}

func TestListRandomizedFind(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		l := NewList(false)
		var ref []Pair
		tu := int64(0)
		n := rng.Intn(BlockSize * 4)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				tu -= int64(rng.Intn(20)) // occasional out-of-order
				if tu < 0 {
					tu = 0
				}
			} else {
				tu += int64(1 + rng.Intn(5))
			}
			p := Pair{Td: tu - int64(rng.Intn(100)), Tu: tu}
			l.Append(nil, p, 0)
			ref = append(ref, p)
		}
		l.Seal(false)
		for q := int64(0); q < 40; q++ {
			probe := int64(rng.Intn(int(tu + 10)))
			wantTd, wantOk := linearFind(ref, probe)
			gotTd, _, _, gotOk := l.Find(probe)
			if gotOk != wantOk || (gotOk && !hasPair(ref, Pair{Td: gotTd, Tu: probe})) {
				t.Fatalf("trial %d Find(%d) = %d,%v want %d,%v", trial, probe, gotTd, gotOk, wantTd, wantOk)
			}
		}
	}
}

func hasPair(ref []Pair, p Pair) bool {
	for _, q := range ref {
		if q == p {
			return true
		}
	}
	return false
}
