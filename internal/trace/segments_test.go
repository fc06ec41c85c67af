package trace

import (
	"errors"
	"strings"
	"testing"
)

func seg(start, end int64) *Segment { return &Segment{StartOrd: start, EndOrd: end} }

func TestSegmentAt(t *testing.T) {
	segs := []*Segment{seg(0, 64), seg(64, 128), seg(128, 150)}
	cases := []struct {
		ord  int64
		want int
	}{
		{0, 0}, {63, 0}, {64, 1}, {127, 1}, {128, 2}, {149, 2},
		{150, -1}, {1 << 40, -1}, {-1, -1},
	}
	for _, c := range cases {
		if got := SegmentAt(segs, c.ord); got != c.want {
			t.Errorf("SegmentAt(%d) = %d, want %d", c.ord, got, c.want)
		}
	}
	if got := SegmentAt(nil, 0); got != -1 {
		t.Errorf("SegmentAt(nil, 0) = %d, want -1", got)
	}
}

func TestValidateSegments(t *testing.T) {
	cases := []struct {
		name  string
		segs  []*Segment
		total int64
		want  string // substring of the error; "" = healthy
		is    error  // the sentinel the error wraps
	}{
		{"healthy", []*Segment{seg(0, 64), seg(64, 100)}, 100, "", nil},
		{"empty-ok", nil, 0, "", nil},
		{"empty-missing", nil, 10, "index empty", ErrSummaryGap},
		{"head-gap", []*Segment{seg(64, 128)}, 128, "gap before segment 0", ErrSummaryGap},
		{"mid-gap", []*Segment{seg(0, 64), seg(128, 150)}, 150, "gap before segment 1", ErrSummaryGap},
		{"overlap", []*Segment{seg(0, 64), seg(32, 100)}, 100, "overlap at segment 1", ErrSummaryGap},
		{"empty-seg", []*Segment{seg(0, 64), seg(64, 64)}, 64, "segment 1 is empty", ErrSummaryGap},
		{"truncated", []*Segment{seg(0, 64)}, 150, "truncated", ErrSummaryTruncated},
		{"overrun", []*Segment{seg(0, 64)}, 50, "overruns", ErrSummaryTruncated},
	}
	for _, c := range cases {
		err := ValidateSegments(c.segs, c.total)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
		if !errors.Is(err, c.is) {
			t.Errorf("%s: error %v does not wrap %v", c.name, err, c.is)
		}
	}
}
