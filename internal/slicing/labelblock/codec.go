package labelblock

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Classified decode errors. Every failure to parse serialized label data
// — epoch files and graph-snapshot sections alike — is reported as a
// *CorruptError whose Class is one of a small closed set, mirroring the
// trace reader's `trace.read.err.*` classification, so callers can count
// and react per failure mode instead of pattern-matching message text.

// Corruption classes.
const (
	ClassBadMagic   = "bad_magic"   // frame does not start with the expected magic
	ClassBadVersion = "bad_version" // frame magic matched but the version is unknown
	ClassTruncated  = "truncated"   // data ends mid-frame
	ClassBadBlock   = "bad_block"   // a block header or payload is implausible
)

// CorruptError reports unparseable serialized label data, classified by
// failure mode.
type CorruptError struct {
	Class  string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("labelblock: %s: %s", e.Class, e.Detail)
}

func corrupt(class, format string, args ...any) error {
	return &CorruptError{Class: class, Detail: fmt.Sprintf(format, args...)}
}

// frameMagic and frameVersion head every WriteBlocks frame, so a stale or
// misaligned epoch file (or a snapshot section decoded at the wrong
// offset) fails with a classified error instead of misparsing varints.
var frameMagic = [4]byte{'D', 'Y', 'L', 'B'}

const frameVersion byte = 1

// Sanity bounds for decoded frames: a block never holds more pairs than a
// few sealed runs (EncodeBlock callers keep runs at BlockSize, but longer
// runs round-trip), and payloads are bounded by the worst-case varint
// width per pair.
const (
	maxBlockPairs   = 1 << 24
	maxFramedBlocks = 1 << 28
)

// minBlockBytes is the smallest encoded block: four one-byte varints.
const minBlockBytes = 4

// maxBlockPayload bounds an encoded block's byte size: three maximal
// varints per pair (Tu delta, Td delta, aux delta).
func maxBlockPayload(n uint64) uint64 { return n * 3 * binary.MaxVarintLen64 }

// minBlockPayload is the smallest payload EncodeBlock writes for n pairs:
// at least one byte for each of a pair's two varints, three with aux.
// A header claiming more pairs than its payload can hold is corrupt.
func minBlockPayload(n uint64, hasAux bool) uint64 {
	if hasAux {
		return 3 * n
	}
	return 2 * n
}

// AppendBlocks appends the block-sequence framing to dst: uvarint count,
// then per block uvarint N, FirstTu, LastTu, payload length, payload.
// The enclosing container (WriteBlocks frame or snapshot section) carries
// the magic/version/checksum; this is the raw payload codec.
func AppendBlocks(dst []byte, blocks []Block) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for i := range blocks {
		b := &blocks[i]
		dst = binary.AppendUvarint(dst, uint64(b.N))
		dst = binary.AppendUvarint(dst, uint64(b.FirstTu))
		dst = binary.AppendUvarint(dst, uint64(b.LastTu))
		dst = binary.AppendUvarint(dst, uint64(len(b.Data)))
		dst = append(dst, b.Data...)
	}
	return dst
}

// DecodeBlocks parses an AppendBlocks run from data, returning the blocks
// and the unconsumed remainder. Block payloads alias data (zero-copy):
// the caller must keep data reachable for the blocks' lifetime. Only the
// headers are validated — each block's range, and the order of the ranges
// FindBlocks searches; a corrupt payload decodes short (see Block.Decode).
// Errors are classified *CorruptError values.
func DecodeBlocks(data []byte, hasAux bool) (blocks []Block, rest []byte, err error) {
	count, data, err := decUvarint(data, "block count")
	if err != nil {
		return nil, nil, err
	}
	if count > maxFramedBlocks {
		return nil, nil, corrupt(ClassBadBlock, "implausible block count %d", count)
	}
	if count > uint64(len(data))/minBlockBytes {
		// Reject before allocating: a block header alone is four varints.
		return nil, nil, corrupt(ClassTruncated, "block count %d exceeds remaining data", count)
	}
	blocks = make([]Block, 0, count)
	for i := uint64(0); i < count; i++ {
		var b Block
		b.HasAux = hasAux
		var n, ft, lt, sz uint64
		if n, data, err = decUvarint(data, "block pair count"); err != nil {
			return nil, nil, err
		}
		if n == 0 || n > maxBlockPairs {
			return nil, nil, corrupt(ClassBadBlock, "implausible pair count %d", n)
		}
		if ft, data, err = decUvarint(data, "block first Tu"); err != nil {
			return nil, nil, err
		}
		if lt, data, err = decUvarint(data, "block last Tu"); err != nil {
			return nil, nil, err
		}
		if int64(ft) > int64(lt) {
			return nil, nil, corrupt(ClassBadBlock, "block range [%d, %d] inverted", int64(ft), int64(lt))
		}
		if len(blocks) > 0 && int64(ft) < blocks[len(blocks)-1].LastTu {
			return nil, nil, corrupt(ClassBadBlock, "block range [%d, %d] starts before the previous block ends at %d",
				int64(ft), int64(lt), blocks[len(blocks)-1].LastTu)
		}
		if sz, data, err = decUvarint(data, "block payload length"); err != nil {
			return nil, nil, err
		}
		if sz < minBlockPayload(n, hasAux) || sz > maxBlockPayload(n) {
			return nil, nil, corrupt(ClassBadBlock, "payload of %d bytes for %d pairs", sz, n)
		}
		if uint64(len(data)) < sz {
			return nil, nil, corrupt(ClassTruncated, "block payload: want %d bytes, have %d", sz, len(data))
		}
		b.N = int32(n)
		b.FirstTu = int64(ft)
		b.LastTu = int64(lt)
		b.Data = data[:sz:sz]
		data = data[sz:]
		blocks = append(blocks, b)
	}
	return blocks, data, nil
}

// Corrupt constructs a classified corruption error. Exported for the
// graph snapshot codecs (fp, opt, snapshot), which share the class set
// so every snapshot decode failure classifies uniformly.
func Corrupt(class, format string, args ...any) error {
	return corrupt(class, format, args...)
}

// DecodeUvarint reads one uvarint off data, classifying failures
// (exported for the graph snapshot codecs).
func DecodeUvarint(data []byte, what string) (uint64, []byte, error) {
	return decUvarint(data, what)
}

// UvarintLen is the encoded length of v (exported for the graph
// snapshot codecs, which size their output buffers with it).
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// decUvarint reads one uvarint off data, classifying failures.
func decUvarint(data []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		if n == 0 {
			return 0, nil, corrupt(ClassTruncated, "data ends inside %s", what)
		}
		return 0, nil, corrupt(ClassBadBlock, "varint overflow in %s", what)
	}
	return v, data[n:], nil
}

// sealedFlags are the List flags a serialized list may carry. Graphs
// serialize their lists after Compact, which leaves none dirty or
// straddling, and queries search a loaded list in place without sorting
// it, so DecodeList rejects a record with any other bit.
const sealedFlags = flagAux | flagDedupe

// AppendList serializes a list — flags, sealed blocks, uncompressed tail
// (with its aux column, when present) — for a graph snapshot section.
// The list should be compacted: DecodeList rejects a dirty or straddling
// one. The list itself is not mutated, so frozen graphs serialize
// concurrently with queries.
func AppendList(dst []byte, l *List) []byte {
	dst = append(dst, l.flags)
	dst = AppendBlocks(dst, l.blocks)
	dst = binary.AppendUvarint(dst, uint64(len(l.tail)))
	prevTu := int64(0)
	for _, p := range l.tail {
		dst = binary.AppendUvarint(dst, zigzag(p.Tu-prevTu))
		dst = binary.AppendUvarint(dst, zigzag(p.Tu-p.Td))
		prevTu = p.Tu
	}
	prevAux := int64(0)
	for _, a := range l.aux {
		dst = binary.AppendUvarint(dst, zigzag(int64(a)-prevAux))
		prevAux = int64(a)
	}
	return dst
}

// DecodeList parses an AppendList record, returning the reconstructed
// list and the unconsumed remainder. Sealed block payloads alias data
// (the single-read snapshot load: blocks land directly in queryable form,
// no per-label decode); the tail is small and copied out. The list must
// be sealed: a dirty or straddling flag, or a tail whose Tu decreases,
// is bad_block. Errors are classified *CorruptError values.
func DecodeList(data []byte) (List, []byte, error) {
	var l List
	if len(data) == 0 {
		return l, nil, corrupt(ClassTruncated, "data ends before list flags")
	}
	flags := data[0]
	if flags&^sealedFlags != 0 {
		return l, nil, corrupt(ClassBadBlock, "list flags %#x: not a sealed list", flags)
	}
	l.flags = flags
	data = data[1:]
	blocks, data, err := DecodeBlocks(data, l.hasAux())
	if err != nil {
		return l, nil, err
	}
	nTail, data, err := decUvarint(data, "tail length")
	if err != nil {
		return l, nil, err
	}
	if nTail > maxFramedBlocks {
		return l, nil, corrupt(ClassBadBlock, "implausible tail length %d", nTail)
	}
	if nTail > uint64(len(data))/2 {
		// Reject before allocating: a tail pair is two varints.
		return l, nil, corrupt(ClassTruncated, "tail length %d exceeds remaining data", nTail)
	}
	// Sum in int64: List.n is an int32, and many blocks can claim more
	// pairs in total than it holds.
	n := int64(nTail)
	for i := range blocks {
		n += int64(blocks[i].N)
	}
	if n > math.MaxInt32 {
		return l, nil, corrupt(ClassBadBlock, "list of %d pairs", n)
	}
	if nTail > 0 {
		l.tail = make([]Pair, nTail)
		prevTu := int64(0)
		for i := range l.tail {
			var du, dd uint64
			if du, data, err = decUvarint(data, "tail Tu delta"); err != nil {
				return l, nil, err
			}
			if dd, data, err = decUvarint(data, "tail Td delta"); err != nil {
				return l, nil, err
			}
			tu := prevTu + unzig(du)
			if i > 0 && tu < prevTu {
				return l, nil, corrupt(ClassBadBlock, "tail Tu %d after %d: tail not sorted", tu, prevTu)
			}
			l.tail[i] = Pair{Tu: tu, Td: tu - unzig(dd)}
			prevTu = tu
		}
		if l.hasAux() {
			l.aux = make([]int32, nTail)
			prevAux := int64(0)
			for i := range l.aux {
				var da uint64
				if da, data, err = decUvarint(data, "tail aux delta"); err != nil {
					return l, nil, err
				}
				prevAux += unzig(da)
				l.aux[i] = int32(prevAux)
			}
		}
	}
	l.blocks = blocks
	l.n = int32(n)
	return l, data, nil
}
