package trace

import (
	"errors"
	"fmt"
)

// SegmentAt returns the index in segs of the segment whose ordinal
// range contains block ordinal ord, or -1 when no segment covers it.
// segs must be ordered by StartOrd, as Writer.Segments produces them.
func SegmentAt(segs []*Segment, ord int64) int {
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if segs[mid].EndOrd <= ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(segs) && ord >= segs[lo].StartOrd {
		return lo
	}
	return -1
}

// Summary-index defects, wrapped by ValidateSegments errors so callers
// can tell them apart with errors.Is.
var (
	// ErrSummaryGap: some ordinal range has no single summary — the index
	// is empty, or has a gap, an overlap or an empty segment.
	ErrSummaryGap = errors.New("trace: summary index incomplete")
	// ErrSummaryTruncated: the segments tile a prefix of the ordinals but
	// stop short of, or run past, the recorded block count.
	ErrSummaryTruncated = errors.New("trace: summary length mismatch")
)

// ValidateSegments checks that a summary index is complete: the
// segments tile the ordinal range [0, totalBlocks) contiguously and in
// order. It returns nil for a healthy index and otherwise an error
// naming the first defect, wrapping ErrSummaryGap or
// ErrSummaryTruncated — the check consumers run before trusting
// summaries to skip (or regenerate) parts of the trace.
func ValidateSegments(segs []*Segment, totalBlocks int64) error {
	if len(segs) == 0 {
		if totalBlocks == 0 {
			return nil
		}
		return fmt.Errorf("%w: index empty, want coverage of %d block executions", ErrSummaryGap, totalBlocks)
	}
	want := int64(0)
	for i, s := range segs {
		if s.StartOrd > want {
			return fmt.Errorf("%w: gap before segment %d: starts at ordinal %d, want %d", ErrSummaryGap, i, s.StartOrd, want)
		}
		if s.StartOrd < want {
			return fmt.Errorf("%w: overlap at segment %d: starts at ordinal %d, want %d", ErrSummaryGap, i, s.StartOrd, want)
		}
		if s.EndOrd <= s.StartOrd {
			return fmt.Errorf("%w: segment %d is empty (ordinals [%d,%d))", ErrSummaryGap, i, s.StartOrd, s.EndOrd)
		}
		want = s.EndOrd
	}
	if want < totalBlocks {
		return fmt.Errorf("%w: truncated: segments cover ordinals [0,%d) of %d block executions", ErrSummaryTruncated, want, totalBlocks)
	}
	if want > totalBlocks {
		return fmt.Errorf("%w: overruns the trace: segments cover ordinals [0,%d), trace has %d block executions", ErrSummaryTruncated, want, totalBlocks)
	}
	return nil
}
