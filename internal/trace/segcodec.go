package trace

import (
	"encoding/binary"

	"dynslice/internal/slicing/labelblock"
)

// Segment-summary codec for the on-disk graph image
// (internal/slicing/snapshot): a snapshot-loaded recording has no trace
// file, but its segment summaries still describe the execution's shape —
// the input the planned re-execution backend (ROADMAP) needs to pick a
// restart point without the graph. Bitset words are stored sparse
// (index, word) pairs: block sets and address filters are mostly zeros
// for all but the hottest segments.

// AppendSegments serializes segment summaries.
func AppendSegments(dst []byte, segs []*Segment) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(segs)))
	for _, s := range segs {
		dst = binary.AppendUvarint(dst, uint64(s.StartOrd))
		dst = binary.AppendUvarint(dst, uint64(s.EndOrd))
		dst = binary.AppendUvarint(dst, uint64(s.Off))
		if s.DefsAll {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendSparseWords(dst, s.Blocks)
		dst = appendSparseWords(dst, s.Defs.bits[:])
	}
	return dst
}

func appendSparseWords(dst []byte, words []uint64) []byte {
	nz := 0
	for _, w := range words {
		if w != 0 {
			nz++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(words)))
	dst = binary.AppendUvarint(dst, uint64(nz))
	for i, w := range words {
		if w != 0 {
			dst = binary.AppendUvarint(dst, uint64(i))
			dst = binary.AppendUvarint(dst, w)
		}
	}
	return dst
}

// minSegmentBytes is the smallest encoding of one segment: three
// one-byte varints, the flags byte, and two empty bitsets (length and
// population, one byte each).
const minSegmentBytes = 8

// DecodeSegments parses an AppendSegments run of summaries over a
// program with numBlocks blocks, returning the segments and the
// unconsumed remainder. Errors are classified *labelblock.CorruptError
// values. Allocation is bounded by len(data) and numBlocks, whatever the
// encoded counts claim.
func DecodeSegments(data []byte, numBlocks int) ([]*Segment, []byte, error) {
	count, data, err := labelblock.DecodeUvarint(data, "trace: segment count")
	if err != nil {
		return nil, nil, err
	}
	segs := make([]*Segment, 0, min(count, uint64(len(data)/minSegmentBytes)))
	for i := uint64(0); i < count; i++ {
		s := &Segment{}
		var so, eo, off uint64
		if so, data, err = labelblock.DecodeUvarint(data, "trace: segment start"); err != nil {
			return nil, nil, err
		}
		if eo, data, err = labelblock.DecodeUvarint(data, "trace: segment end"); err != nil {
			return nil, nil, err
		}
		if off, data, err = labelblock.DecodeUvarint(data, "trace: segment offset"); err != nil {
			return nil, nil, err
		}
		if so > eo {
			return nil, nil, labelblock.Corrupt(labelblock.ClassBadBlock, "trace: segment range [%d, %d) inverted", so, eo)
		}
		s.StartOrd, s.EndOrd, s.Off = int64(so), int64(eo), int64(off)
		if len(data) == 0 {
			return nil, nil, labelblock.Corrupt(labelblock.ClassTruncated, "trace: data ends inside segment flags")
		}
		s.DefsAll = data[0] != 0
		data = data[1:]
		s.Blocks = newBlockSet(numBlocks)
		if data, err = decodeSparseWords(data, s.Blocks); err != nil {
			return nil, nil, err
		}
		if data, err = decodeSparseWords(data, s.Defs.bits[:]); err != nil {
			return nil, nil, err
		}
		segs = append(segs, s)
	}
	return segs, data, nil
}

// decodeSparseWords parses an appendSparseWords run into into, whose
// length the encoded bitset length must equal.
func decodeSparseWords(data []byte, into []uint64) ([]byte, error) {
	n, data, err := labelblock.DecodeUvarint(data, "trace: bitset length")
	if err != nil {
		return nil, err
	}
	if n != uint64(len(into)) {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "trace: bitset of %d words, want %d", n, len(into))
	}
	nz, data, err := labelblock.DecodeUvarint(data, "trace: bitset population")
	if err != nil {
		return nil, err
	}
	if nz > n {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "trace: %d non-zero words in a %d-word bitset", nz, n)
	}
	for i := uint64(0); i < nz; i++ {
		var idx, w uint64
		if idx, data, err = labelblock.DecodeUvarint(data, "trace: bitset word index"); err != nil {
			return nil, err
		}
		if w, data, err = labelblock.DecodeUvarint(data, "trace: bitset word"); err != nil {
			return nil, err
		}
		if idx >= n {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "trace: bitset word index %d out of range", idx)
		}
		into[idx] = w
	}
	return data, nil
}
