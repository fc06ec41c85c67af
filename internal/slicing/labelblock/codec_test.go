package labelblock

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// compactedList returns a compacted list of n pairs with every third Tu,
// with or without an aux column.
func compactedList(n int, hasAux bool) List {
	l := NewList(hasAux)
	for i := 0; i < n; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: int64(3*i + 1)}, int32(i%7-3))
	}
	l.Compact(nil, false)
	return l
}

// requireClass fails unless err is a *CorruptError of the given class.
func requireClass(t *testing.T, err error, class string) {
	t.Helper()
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Class != class {
		t.Fatalf("err = %v, want class %q", err, class)
	}
}

// TestDecodeListRejectsUnsealed: queries search a loaded list in place,
// so a record must describe a sealed list. A dirty or straddling flag, an
// unknown flag bit, a tail whose Tu decreases, and a block that starts
// before the previous one ends each fail as bad_block.
func TestDecodeListRejectsUnsealed(t *testing.T) {
	good := compactedList(2*BlockSize+5, true)
	if len(good.blocks) < 2 || len(good.tail) == 0 {
		t.Fatalf("fixture has %d blocks, %d tail pairs; want at least 2 and 1", len(good.blocks), len(good.tail))
	}
	rec := AppendList(nil, &good)
	if _, rest, err := DecodeList(rec); err != nil || len(rest) != 0 {
		t.Fatalf("compacted list: err %v, %d bytes left", err, len(rest))
	}
	for _, c := range []struct {
		name string
		flag uint8
	}{{"dirty", flagDirty}, {"straddle", flagStraddle}, {"unknown", 1 << 7}} {
		t.Run(c.name, func(t *testing.T) {
			bad := slices.Clone(rec)
			bad[0] |= c.flag
			_, _, err := DecodeList(bad)
			requireClass(t, err, ClassBadBlock)
		})
	}
	t.Run("tail_order", func(t *testing.T) {
		l := NewList(false)
		for _, tu := range []int64{20, 10, 30} {
			l.Append(nil, Pair{Td: tu - 1, Tu: tu}, 0)
		}
		l.flags &^= flagDirty // as written by a builder that never sealed it
		_, _, err := DecodeList(AppendList(nil, &l))
		requireClass(t, err, ClassBadBlock)
	})
	t.Run("block_order", func(t *testing.T) {
		l := good
		l.blocks = []Block{good.blocks[1], good.blocks[0]}
		_, _, err := DecodeList(AppendList(nil, &l))
		requireClass(t, err, ClassBadBlock)
	})
}

// TestCompactSealsStraddlingTail: a straggler that lands in an empty tail
// right after a block seals leaves a clean tail reaching back into the
// sealed range. Compact must still leave the list sealed, so its record
// loads and every pair is found.
func TestCompactSealsStraddlingTail(t *testing.T) {
	l := NewList(false)
	var want []Pair
	add := func(p Pair) {
		l.Append(nil, p, 0)
		want = append(want, p)
	}
	for i := 0; i < BlockSize; i++ {
		add(Pair{Td: int64(i), Tu: 1000 + 2*int64(i)})
	}
	add(Pair{Td: 42, Tu: 1051})
	for i := 0; i < minCompactTail; i++ {
		add(Pair{Td: 7, Tu: 2000 + int64(i)})
	}
	l.Compact(nil, false)
	if l.flags&^sealedFlags != 0 {
		t.Fatalf("compacted list keeps flags %#x", l.flags)
	}
	got, _, err := DecodeList(AppendList(nil, &l))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range want {
		if td, _, _, ok := got.Find(p.Tu); !ok || td != p.Td {
			t.Fatalf("Find(%d) = %d,%v want %d,true", p.Tu, td, ok, p.Td)
		}
	}
}

// FuzzDecodeList feeds arbitrary list records to the decoder. Each input
// must fail as a *CorruptError or decode to a sealed list: not dirty,
// its tail sorted by Tu, Find answering every tail Tu with a pair the
// list holds (the tail pair itself when no other pair shares its Tu),
// Find and a cursor lookup returning without panic at every block bound
// and around every tail Tu, and a re-encoding that decodes to an equal
// list. Block payloads are not validated at load, so a corrupt one must
// decode short rather than panic.
// overclaimedList is a 918-byte list record of 130 blocks, each claiming
// 2^24 pairs over an empty payload: 2^31+ pairs in all, more than an
// int32 length holds.
func overclaimedList() []byte {
	rec := []byte{0}
	rec = binary.AppendUvarint(rec, 130)
	for i := uint64(0); i < 130; i++ {
		rec = binary.AppendUvarint(rec, 1<<24) // pairs
		rec = binary.AppendUvarint(rec, i)     // first Tu
		rec = binary.AppendUvarint(rec, i)     // last Tu
		rec = binary.AppendUvarint(rec, 0)     // payload bytes
	}
	return binary.AppendUvarint(rec, 0) // empty tail
}

// TestDecodeListRejectsOverclaimedBlocks: a block whose payload is too
// short for the pairs its header claims — under the one byte per varint
// EncodeBlock writes — is bad_block, so no list decodes to a pair count
// its bytes cannot hold, and none to a negative length. A payload of
// exactly the minimum decodes.
func TestDecodeListRejectsOverclaimedBlocks(t *testing.T) {
	rec := overclaimedList()
	if len(rec) != 918 {
		t.Fatalf("record is %d bytes, want 918", len(rec))
	}
	block := func(flags byte, n uint64, payload []byte) []byte {
		b := []byte{flags, 1}
		b = binary.AppendUvarint(b, n)
		b = append(b, 3, 9)
		b = binary.AppendUvarint(b, uint64(len(payload)))
		return append(append(b, payload...), 0)
	}
	for name, data := range map[string][]byte{
		"130 blocks of 2^24 pairs": rec,
		"3 pairs in 5 bytes":       block(0, 3, make([]byte, 5)),
		"2 aux pairs in 5 bytes":   block(flagAux, 2, make([]byte, 5)),
	} {
		l, _, err := DecodeList(data)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Class != ClassBadBlock {
			t.Errorf("%s: Len %d, err %v; want bad_block", name, l.Len(), err)
		}
	}
	for name, data := range map[string][]byte{
		"2 pairs in 4 bytes":     block(0, 2, []byte{0, 0, 6, 0}),
		"2 aux pairs in 6 bytes": block(flagAux, 2, []byte{0, 0, 0, 6, 0, 0}),
	} {
		if l, _, err := DecodeList(data); err != nil || l.Len() != 2 {
			t.Errorf("%s: Len %d, err %v; want 2 pairs", name, l.Len(), err)
		}
	}
}

func FuzzDecodeList(f *testing.F) {
	for _, hasAux := range []bool{false, true} {
		for _, n := range []int{0, 5, 2*BlockSize + 5} {
			l := compactedList(n, hasAux)
			f.Add(AppendList(nil, &l))
		}
	}
	// One block whose payload starts with an overlong varint.
	bad := []byte{0, 1, 1, 5, 5, 11}
	for i := 0; i < 11; i++ {
		bad = append(bad, 0xFF)
	}
	f.Add(append(bad, 0))
	f.Add(overclaimedList())
	f.Fuzz(func(t *testing.T, data []byte) {
		l, _, err := DecodeList(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("unclassified error %T: %v", err, err)
			}
			return
		}
		if l.Len() < 0 {
			t.Fatalf("decoded list has length %d", l.Len())
		}
		if l.Dirty() || l.flags&flagStraddle != 0 {
			t.Fatalf("decoded list has flags %#x", l.flags)
		}
		for i := 1; i < len(l.tail); i++ {
			if l.tail[i].Tu < l.tail[i-1].Tu {
				t.Fatalf("tail unsorted at %d: %v then %v", i, l.tail[i-1], l.tail[i])
			}
		}
		all := l.Pairs(nil)
		for _, p := range l.tail {
			td, _, _, ok := l.Find(p.Tu)
			if !ok || !slices.Contains(all, Pair{Td: td, Tu: p.Tu}) {
				t.Fatalf("Find(%d) = %d,%v: not a pair the list holds", p.Tu, td, ok)
			}
		}
		var cc CursorCache
		cc.Reset(1)
		probe := func(tu int64) {
			l.Find(tu)
			cc.Find(0, &l, tu)
		}
		for _, b := range l.blocks {
			probe(b.FirstTu)
			probe(b.LastTu)
		}
		for _, p := range l.tail {
			probe(p.Tu - 1)
			probe(p.Tu)
			probe(p.Tu + 1)
		}
		again, rest, err := DecodeList(AppendList(nil, &l))
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded list: err %v, %d bytes left", err, len(rest))
		}
		if !reflect.DeepEqual(l, again) {
			t.Fatalf("re-encoded list differs:\n%+v\n%+v", l, again)
		}
	})
}
