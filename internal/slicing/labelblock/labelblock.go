// Package labelblock is the compact storage layer for dependence labels:
// append-ordered lists of (Td, Tu) timestamp pairs, optionally carrying a
// per-pair int32 auxiliary column (FP stores the producing statement there).
//
// The paper's whole argument is label-space cost effectiveness, so the
// in-memory representation matters as much as the label count. A plain Go
// `[]Pair` spends 16 bytes per pair plus slice-growth slack; this package
// stores sealed runs of pairs as delta-varint blocks of up to BlockSize
// pairs — Tu is stored as a delta from its predecessor, Td as a zig-zag
// delta from its own Tu, and the aux column as a zig-zag delta from its
// predecessor — which costs 2-4 bytes per pair on the regular dependence
// streams loops produce. Appends land in a small uncompressed tail (its
// backing array is recycled through an Arena free list), and lookups
// binary-search the per-block first/last Tu before scanning inside one
// block, so Find stays O(log blocks + BlockSize).
//
// The same codec serializes OPT's §4.2 hybrid disk epochs (see
// WriteBlocks/ReadBlocks), so flushed epoch files shrink by the same
// factor as the resident graph.
package labelblock

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"sort"
)

// Pair is one dependence label: the timestamps of the defining (or
// controlling) execution and the using execution.
type Pair struct {
	Td, Tu int64
}

// BlockSize is the number of pairs a sealed block holds (the last block of
// a run may be shorter). 128 keeps the in-block linear scan cheap while
// amortizing the per-block header.
const BlockSize = 128

// Block is an immutable run of pairs sorted by Tu, delta-varint encoded.
type Block struct {
	FirstTu int64
	LastTu  int64
	N       int32
	HasAux  bool
	Data    []byte
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends v to dst as a uvarint.
func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// EncodeBlock compresses pairs (sorted by Tu, non-empty, len <= BlockSize
// callers keep that invariant but longer runs still round-trip) into a
// Block. aux may be nil; otherwise len(aux) == len(pairs). The payload is
// copied into ar (heap when ar is nil), so the input slices may be reused.
func EncodeBlock(ar *Arena, pairs []Pair, aux []int32) Block {
	b := Block{
		FirstTu: pairs[0].Tu,
		LastTu:  pairs[len(pairs)-1].Tu,
		N:       int32(len(pairs)),
		HasAux:  aux != nil,
	}
	scratch := ar.scratch()
	prevTu := b.FirstTu
	prevAux := int64(0)
	for i, p := range pairs {
		scratch = appendUvarint(scratch, uint64(p.Tu-prevTu))
		scratch = appendUvarint(scratch, zigzag(p.Tu-p.Td))
		prevTu = p.Tu
		if aux != nil {
			a := int64(aux[i])
			scratch = appendUvarint(scratch, zigzag(a-prevAux))
			prevAux = a
		}
	}
	b.Data = ar.bytes(scratch)
	ar.putScratch(scratch)
	return b
}

// Find locates the pair with the exact consumer timestamp tu by decoding
// the block until the running Tu reaches tu. probes counts decoded
// entries — the unit of search work for a block. A malformed varint ends
// the search as Decode ends its walk, so the two see the same entries.
func (b *Block) Find(tu int64) (td int64, aux int32, probes int64, found bool) {
	if tu < b.FirstTu || tu > b.LastTu {
		return 0, 0, 0, false
	}
	data := b.Data
	curTu := b.FirstTu
	prevAux := int64(0)
	for i := int32(0); i < b.N; i++ {
		du, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		dd, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		if b.HasAux {
			da, n := binary.Uvarint(data)
			if n <= 0 {
				break
			}
			data = data[n:]
			prevAux += unzig(da)
		}
		curTu += int64(du)
		probes++
		if curTu == tu {
			return curTu - unzig(dd), int32(prevAux), probes, true
		}
		if curTu > tu {
			break
		}
	}
	return 0, 0, probes, false
}

// Decode appends the block's pairs (and aux values, when present) to the
// given slices; either destination may start nil. A malformed varint ends
// the walk, so a corrupt payload yields fewer than N pairs, never a
// panic; pairs and aux values stay aligned.
func (b *Block) Decode(dst []Pair, auxDst []int32) ([]Pair, []int32) {
	data := b.Data
	curTu := b.FirstTu
	prevAux := int64(0)
	for i := int32(0); i < b.N; i++ {
		du, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		dd, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		if b.HasAux {
			da, n := binary.Uvarint(data)
			if n <= 0 {
				break
			}
			data = data[n:]
			prevAux += unzig(da)
			auxDst = append(auxDst, int32(prevAux))
		}
		curTu += int64(du)
		dst = append(dst, Pair{Tu: curTu, Td: curTu - unzig(dd)})
	}
	return dst, auxDst
}

// MemBytes reports the resident size of the block: payload plus the
// struct header.
func (b *Block) MemBytes() int64 { return int64(len(b.Data)) + blockHeaderBytes }

const blockHeaderBytes = 48 // two int64s, int32+bool padded, slice header

// FindBlocks searches a Tu-sorted, non-overlapping block sequence (the
// layout List maintains and epoch files store) for tu.
func FindBlocks(blocks []Block, tu int64) (td int64, aux int32, probes int64, found bool) {
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].LastTu >= tu })
	if i >= len(blocks) || blocks[i].FirstTu > tu {
		if len(blocks) > 0 {
			probes++ // the boundary comparison that rejected the range
		}
		return 0, 0, probes, false
	}
	td, aux, p, ok := blocks[i].Find(tu)
	return td, aux, probes + p, ok
}

// List is a compressed append-ordered pair list: sealed blocks followed by
// an uncompressed tail. A List value is 80 bytes regardless of length; the
// zero value is an empty compact list without aux column.
type List struct {
	blocks []Block
	tail   []Pair
	aux    []int32
	n      int32 // resident pairs (blocks + tail)
	flags  uint8
}

// List flags.
const (
	flagAux      uint8 = 1 << iota // carries the int32 aux column
	flagDirty                      // tail is unsorted (out-of-order append)
	flagStraddle                   // sorted tail begins at or before the blocks' range
	flagDedupe                     // drop exact duplicate pairs when sealing (shared lists)
)

// NewList returns an empty list; hasAux enables the int32 column.
func NewList(hasAux bool) List {
	if hasAux {
		return List{flags: flagAux}
	}
	return List{}
}

func (l *List) hasAux() bool { return l.flags&flagAux != 0 }

// SetDedupe marks the list as shared: sealing drops exact duplicate pairs
// (cluster partners append the same pair when a straggler defeats the
// caller's append-time dedupe).
func (l *List) SetDedupe() { l.flags |= flagDedupe }

// Dirty reports whether the tail holds out-of-order appends.
func (l *List) Dirty() bool { return l.flags&flagDirty != 0 }

// Len returns the number of resident pairs.
func (l *List) Len() int { return int(l.n) }

// Blocks returns the sealed blocks (read-only; epoch serialization).
func (l *List) Blocks() []Block { return l.blocks }

// Append records a pair (and its aux value, ignored unless the list has an
// aux column). Appends are O(1); when the tail fills, it is sealed into a
// block unless out-of-order arrivals force it to stay resident (see Seal).
// Short lists grow their tail naturally — most lists in a compacted graph
// hold a handful of pairs, and handing each a BlockSize buffer would
// dominate resident bytes — while a list that seals a block has proven hot
// and refills from the arena's recycled fixed-capacity buffers.
func (l *List) Append(ar *Arena, p Pair, aux int32) {
	if len(l.tail) > 0 && p.Tu < l.tail[len(l.tail)-1].Tu {
		l.flags |= flagDirty
	}
	l.tail = append(l.tail, p)
	if l.hasAux() {
		l.aux = append(l.aux, aux)
	}
	l.n++
	if len(l.tail) >= BlockSize {
		l.compressTail(ar, l.flags&flagDedupe != 0)
		if l.tail == nil {
			l.tail = ar.newTail()
		}
	}
}

// compressTail seals the tail into a block when it is sorted and ordered
// after every existing block. dedupe drops exact duplicate pairs first
// (shared cluster lists).
func (l *List) compressTail(ar *Arena, dedupe bool) {
	if len(l.tail) == 0 {
		return
	}
	l.sortTail(dedupe)
	if len(l.blocks) > 0 && l.tail[0].Tu <= l.blocks[len(l.blocks)-1].LastTu {
		// A straggler (recursive superblock suspension) reaches back into
		// the sealed range: keep the tail resident so Find can consult
		// both. Repack restores full compression.
		l.flags |= flagStraddle
		return
	}
	var aux []int32
	if l.hasAux() {
		aux = l.aux
	}
	for off := 0; off < len(l.tail); off += BlockSize {
		end := min(off+BlockSize, len(l.tail))
		var a []int32
		if aux != nil {
			a = aux[off:end]
		}
		l.blocks = append(l.blocks, EncodeBlock(ar, l.tail[off:end], a))
	}
	ar.freeTail(l.tail)
	l.tail = nil
	l.aux = l.aux[:0]
}

// sortTail sorts the tail by Tu (stable on ties so shared-list duplicates
// stay adjacent) and optionally dedupes exact duplicate pairs.
func (l *List) sortTail(dedupe bool) {
	if l.flags&flagDirty != 0 {
		order := func(a, b Pair) int {
			if c := cmp.Compare(a.Tu, b.Tu); c != 0 {
				return c
			}
			return cmp.Compare(a.Td, b.Td)
		}
		if l.hasAux() {
			// Keep the aux column aligned through the permutation.
			idx := make([]int, len(l.tail))
			for i := range idx {
				idx[i] = i
			}
			slices.SortStableFunc(idx, func(a, b int) int { return order(l.tail[a], l.tail[b]) })
			tail := make([]Pair, len(l.tail))
			aux := make([]int32, len(l.aux))
			for i, j := range idx {
				tail[i] = l.tail[j]
				aux[i] = l.aux[j]
			}
			copy(l.tail, tail)
			copy(l.aux, aux)
		} else {
			slices.SortStableFunc(l.tail, order)
		}
		l.flags &^= flagDirty
	}
	if dedupe {
		w := 0
		for i, p := range l.tail {
			if i > 0 && p == l.tail[w-1] {
				continue
			}
			l.tail[w] = p
			if l.hasAux() {
				l.aux[w] = l.aux[i]
			}
			w++
		}
		l.n -= int32(len(l.tail) - w)
		l.tail = l.tail[:w]
		if l.hasAux() {
			l.aux = l.aux[:w]
		}
	}
}

// Seal prepares the list for lookups: the tail is sorted (and, when dedupe
// is set, stripped of exact duplicate pairs). It does not force
// compression; use Repack for that.
func (l *List) Seal(dedupe bool) {
	if l.flags&flagDirty != 0 || dedupe {
		l.sortTail(dedupe)
	}
}

// Repack rewrites the list into maximally compressed, globally sorted
// form: every resident pair is decoded, merged, optionally deduped, and
// re-encoded into full blocks plus a short tail. Graph finalization calls
// this for lists that a straggler left straddling or uncompressed.
func (l *List) Repack(ar *Arena, dedupe bool) {
	if len(l.blocks) == 0 && len(l.tail) < BlockSize {
		l.Seal(dedupe)
		return
	}
	pairs := make([]Pair, 0, l.n)
	var aux []int32
	if l.hasAux() {
		aux = make([]int32, 0, l.n)
	}
	for i := range l.blocks {
		pairs, aux = l.blocks[i].Decode(pairs, aux)
	}
	pairs = append(pairs, l.tail...)
	if l.hasAux() {
		aux = append(aux, l.aux...)
	}
	ar.freeTail(l.tail)
	l.blocks, l.tail, l.aux = nil, pairs, aux
	l.n = int32(len(pairs))
	l.flags |= flagDirty // force the sort: block order vs tail is unknown
	l.flags &^= flagStraddle
	l.compressTail(ar, dedupe)
}

// minCompactTail is the smallest tail worth sealing into a short block at
// finalization: below it the block header outweighs the savings.
const minCompactTail = 8

// Compact finalizes the list for read-only querying at maximum
// compression: a clean tail of at least minCompactTail pairs is sealed,
// and dirty or straddling lists — a clean tail that reaches back into
// the sealed range straddles once it tries to seal — are repacked into
// globally sorted blocks. dedupe applies the shared-list duplicate drop.
// A compacted list is sealed: neither dirty nor straddling, the state
// DecodeList requires of a serialized list.
func (l *List) Compact(ar *Arena, dedupe bool) {
	if !l.Dirty() && l.flags&flagStraddle == 0 && len(l.tail) >= minCompactTail {
		l.compressTail(ar, dedupe)
	}
	if l.Dirty() || l.flags&flagStraddle != 0 {
		l.Repack(ar, dedupe)
	}
	l.shrinkTail(ar)
}

// shrinkTail rights-sizes a finalized tail: a hot list refills from
// recycled BlockSize-capacity buffers, so whatever short tail survives
// finalization would otherwise pin a mostly empty 2 KiB array.
func (l *List) shrinkTail(ar *Arena) {
	if l.tail == nil || cap(l.tail) == len(l.tail) {
		return
	}
	t := make([]Pair, len(l.tail))
	copy(t, l.tail)
	ar.freeTail(l.tail)
	l.tail = t
	if l.hasAux() && cap(l.aux) > len(l.aux) {
		a := make([]int32, len(l.aux))
		copy(a, l.aux)
		l.aux = a
	}
	if len(l.tail) == 0 {
		l.tail = nil
	}
}

// Find locates the pair with consumer timestamp tu. The tail must be
// sorted (callers Seal after out-of-order appends); blocks and tail are
// both consulted so straddling stragglers are found.
func (l *List) Find(tu int64) (td int64, aux int32, probes int64, found bool) {
	td, aux, probes, found = FindBlocks(l.blocks, tu)
	if found {
		return td, aux, probes, true
	}
	td, aux, p, found := l.findTail(tu)
	return td, aux, probes + p, found
}

// findTail binary-searches the (sorted) uncompressed tail only.
func (l *List) findTail(tu int64) (td int64, aux int32, probes int64, found bool) {
	lo, hi := 0, len(l.tail)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if l.tail[mid].Tu < tu {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(l.tail) && l.tail[lo].Tu == tu {
		if l.hasAux() {
			aux = l.aux[lo]
		}
		return l.tail[lo].Td, aux, probes, true
	}
	return 0, 0, probes, false
}

// Pairs appends every resident pair (blocks then tail, each run sorted) to
// dst.
func (l *List) Pairs(dst []Pair) []Pair {
	for i := range l.blocks {
		dst, _ = l.blocks[i].Decode(dst, nil)
	}
	return append(dst, l.tail...)
}

// MemBytes reports the resident bytes of the list's label storage:
// encoded block payloads plus headers, plus the tail's backing capacity.
func (l *List) MemBytes() int64 {
	var sz int64
	for i := range l.blocks {
		sz += l.blocks[i].MemBytes()
	}
	sz += int64(cap(l.tail)) * 16
	sz += int64(cap(l.aux)) * 4
	return sz
}

// Split removes and returns every resident pair with Tu >= cut, encoded as
// blocks (OPT's hybrid epoch flush: the current epoch's labels go to disk,
// stragglers from suspended executions stay resident). The list keeps only
// pairs with Tu < cut. Returns nil when nothing is in range.
func (l *List) Split(ar *Arena, cut int64) []Block {
	dedupe := l.flags&flagDedupe != 0
	l.Seal(dedupe)
	// flagStraddle is only raised when a full tail fails to seal, so also
	// check the tail's actual overlap with the sealed range: a straggler
	// sitting in a short tail would otherwise be encoded after the moved
	// sealed blocks, leaving the returned sequence unsorted/overlapping —
	// unsearchable by FindBlocks once written to an epoch file.
	if l.flags&flagStraddle != 0 ||
		(len(l.blocks) > 0 && len(l.tail) > 0 && l.tail[0].Tu <= l.blocks[len(l.blocks)-1].LastTu) {
		l.Repack(ar, dedupe)
	}
	var out []Block
	// Whole blocks at or past the cut move out; one block may straddle.
	i := len(l.blocks)
	for i > 0 && l.blocks[i-1].FirstTu >= cut {
		i--
	}
	moved := l.blocks[i:]
	l.blocks = l.blocks[:i]
	if len(l.blocks) > 0 && l.blocks[len(l.blocks)-1].LastTu >= cut {
		// Straddling block: decode and re-split around the cut.
		b := l.blocks[len(l.blocks)-1]
		l.blocks = l.blocks[:len(l.blocks)-1]
		pairs, aux := b.Decode(nil, l.auxScratch())
		k := sort.Search(len(pairs), func(i int) bool { return pairs[i].Tu >= cut })
		if k > 0 {
			var a []int32
			if l.hasAux() {
				a = aux[:k]
			}
			l.blocks = append(l.blocks, EncodeBlock(ar, pairs[:k], a))
		}
		var a []int32
		if l.hasAux() {
			a = aux[k:]
		}
		out = append(out, EncodeBlock(ar, pairs[k:], a))
	}
	out = append(out, moved...)
	// Tail pairs at or past the cut are encoded straight to blocks.
	k := sort.Search(len(l.tail), func(i int) bool { return l.tail[i].Tu >= cut })
	if k < len(l.tail) {
		for off := k; off < len(l.tail); off += BlockSize {
			end := min(off+BlockSize, len(l.tail))
			var a []int32
			if l.hasAux() {
				a = l.aux[off:end]
			}
			out = append(out, EncodeBlock(ar, l.tail[off:end], a))
		}
		l.tail = l.tail[:k]
		if l.hasAux() {
			l.aux = l.aux[:k]
		}
	}
	var kept int32
	for i := range l.blocks {
		kept += l.blocks[i].N
	}
	l.n = kept + int32(len(l.tail))
	return out
}

func (l *List) auxScratch() []int32 {
	if l.hasAux() {
		return make([]int32, 0, BlockSize)
	}
	return nil
}

// WriteBlocks serializes blocks with the epoch-file framing: a 4-byte
// magic plus version byte, then uvarint count, then per block uvarint N,
// FirstTu, LastTu, payload length, payload. The header lets ReadBlocks
// reject stale or misaligned frames with a classified error instead of
// misparsing varints.
func WriteBlocks(bw *bufio.Writer, blocks []Block) error {
	if _, err := bw.Write(frameMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(frameVersion); err != nil {
		return err
	}
	put := func(v uint64) error {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(len(blocks))); err != nil {
		return err
	}
	for i := range blocks {
		b := &blocks[i]
		if err := put(uint64(b.N)); err != nil {
			return err
		}
		if err := put(uint64(b.FirstTu)); err != nil {
			return err
		}
		if err := put(uint64(b.LastTu)); err != nil {
			return err
		}
		if err := put(uint64(len(b.Data))); err != nil {
			return err
		}
		if _, err := bw.Write(b.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlocks reads a WriteBlocks frame, validating the magic and version
// first. hasAux must match what was encoded (the framing does not repeat
// it per block). Decode failures are classified *CorruptError values.
func ReadBlocks(br *bufio.Reader, hasAux bool) ([]Block, error) {
	var hdr [len(frameMagic) + 1]byte
	if _, err := readFull(br, hdr[:]); err != nil {
		return nil, corrupt(ClassTruncated, "frame header: %v", err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return nil, corrupt(ClassBadMagic, "frame starts %q, want %q", hdr[:4], frameMagic[:])
	}
	if hdr[4] != frameVersion {
		return nil, corrupt(ClassBadVersion, "frame version %d, want %d", hdr[4], frameVersion)
	}
	count, err := readUvarint(br, "block count")
	if err != nil {
		return nil, err
	}
	if count > maxFramedBlocks {
		return nil, corrupt(ClassBadBlock, "implausible block count %d", count)
	}
	blocks := make([]Block, 0, count)
	for i := uint64(0); i < count; i++ {
		var b Block
		b.HasAux = hasAux
		n, err := readUvarint(br, "block pair count")
		if err != nil {
			return nil, err
		}
		if n == 0 || n > maxBlockPairs {
			return nil, corrupt(ClassBadBlock, "implausible pair count %d", n)
		}
		b.N = int32(n)
		ft, err := readUvarint(br, "block first Tu")
		if err != nil {
			return nil, err
		}
		b.FirstTu = int64(ft)
		lt, err := readUvarint(br, "block last Tu")
		if err != nil {
			return nil, err
		}
		b.LastTu = int64(lt)
		if b.FirstTu > b.LastTu {
			return nil, corrupt(ClassBadBlock, "block range [%d, %d] inverted", b.FirstTu, b.LastTu)
		}
		sz, err := readUvarint(br, "block payload length")
		if err != nil {
			return nil, err
		}
		if sz > maxBlockPayload(n) {
			return nil, corrupt(ClassBadBlock, "payload of %d bytes for %d pairs", sz, n)
		}
		b.Data = make([]byte, sz)
		if _, err := readFull(br, b.Data); err != nil {
			return nil, corrupt(ClassTruncated, "block payload: %v", err)
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// readUvarint reads one uvarint off br, classifying failures.
func readUvarint(br *bufio.Reader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, corrupt(ClassTruncated, "stream ends inside %s", what)
		}
		return 0, corrupt(ClassBadBlock, "%s: %v", what, err)
	}
	return v, nil
}

func readFull(br *bufio.Reader, dst []byte) (int, error) {
	total := 0
	for total < len(dst) {
		n, err := br.Read(dst[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
