package lp_test

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/trace"
)

const batchSrc = `
var total = 0;
var arr[80];

func addup(k) {
	var j = 0;
	var acc = 0;
	while (j < k) {
		acc = acc + arr[j];
		j = j + 1;
	}
	return acc;
}

func main() {
	var i = 0;
	while (i < 80) {
		arr[i] = i * 3;
		if (i % 4 == 0) {
			total = total + addup(i);
		}
		i = i + 1;
	}
	print(total);
}
`

// defCollector records every defined address during the trace run.
type defCollector struct{ addrs map[int64]bool }

func (c *defCollector) Block(*ir.Block) {}
func (c *defCollector) Stmt(s *ir.Stmt, _, defs []int64) {
	for _, a := range defs {
		c.addrs[a] = true
	}
}
func (c *defCollector) RegionDef(s *ir.Stmt, start, length int64) {
	for a := start; a < start+length; a++ {
		c.addrs[a] = true
	}
}
func (c *defCollector) End() {}

// buildBatchLP writes the trace for batchSrc and returns the LP slicer
// plus every defined address, sorted.
func buildBatchLP(t *testing.T, segBlocks int) (*lp.Slicer, []int64) {
	t.Helper()
	p, err := compile.Source(batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(p, f, segBlocks)
	defs := &defCollector{addrs: map[int64]bool{}}
	if _, err := interp.Run(p, interp.Options{Sink: trace.Multi{w, defs}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	addrs := make([]int64, 0, len(defs.addrs))
	for a := range defs.addrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return lp.New(p, path, w.Segments()), addrs
}

// TestSliceAllMatchesSequential: one batched backward scan must reproduce
// the sequential slice for every defined address (crossing the
// 64-criterion chunk boundary), at several segment granularities so both
// the skip and scan paths are exercised.
func TestSliceAllMatchesSequential(t *testing.T) {
	for _, segBlocks := range []int{3, 64, 4096} {
		s, addrs := buildBatchLP(t, segBlocks)
		if len(addrs) <= 64 {
			t.Fatalf("want >64 criteria, have %d", len(addrs))
		}
		cs := make([]slicing.Criterion, len(addrs))
		for i, a := range addrs {
			cs[i] = slicing.AddrCriterion(a)
		}
		batched, _, err := s.SliceAll(cs)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range addrs {
			seq, _, err := s.Slice(slicing.AddrCriterion(a))
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Equal(batched[i]) {
				t.Fatalf("segBlocks=%d addr %d: batched (%d stmts) != sequential (%d stmts)",
					segBlocks, a, batched[i].Len(), seq.Len())
			}
		}
	}
}

// TestSliceAllCriteriaCounts sweeps batch sizes straddling the 64-bit
// chunk boundaries (1, 63, 64, 65, and 200 with duplicated addresses);
// every chunked scan must reproduce the sequential answer.
func TestSliceAllCriteriaCounts(t *testing.T) {
	s, addrs := buildBatchLP(t, 16)
	seq := map[int64]*slicing.Slice{}
	for _, a := range addrs {
		sl, _, err := s.Slice(slicing.AddrCriterion(a))
		if err != nil {
			t.Fatal(err)
		}
		seq[a] = sl
	}
	for _, n := range []int{1, 63, 64, 65, 200} {
		picked := make([]int64, n)
		cs := make([]slicing.Criterion, n)
		for i := 0; i < n; i++ {
			picked[i] = addrs[i%len(addrs)] // >len(addrs) duplicates criteria
			cs[i] = slicing.AddrCriterion(picked[i])
		}
		outs, _, err := s.SliceAll(cs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, a := range picked {
			if !outs[i].Equal(seq[a]) {
				t.Fatalf("n=%d: addr %d diverged from sequential", n, a)
			}
		}
	}
}

// TestSliceAllBatchedScanSharing: the whole point of batching LP queries
// is amortizing trace scans; N criteria in one batch must decode far
// fewer segments than N sequential queries.
func TestSliceAllBatchedScanSharing(t *testing.T) {
	s, addrs := buildBatchLP(t, 8)
	cs := make([]slicing.Criterion, len(addrs))
	for i, a := range addrs {
		cs[i] = slicing.AddrCriterion(a)
	}
	_, batchStats, err := s.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	var seqScans int64
	for _, c := range cs {
		_, st, err := s.Slice(c)
		if err != nil {
			t.Fatal(err)
		}
		seqScans += st.SegScans
	}
	if batchStats.SegScans*2 >= seqScans {
		t.Errorf("batched scan shares nothing: batch=%d segments vs sequential total=%d",
			batchStats.SegScans, seqScans)
	}
}

// TestSliceAllErrors: error cases must match the sequential API.
func TestSliceAllErrors(t *testing.T) {
	s, addrs := buildBatchLP(t, 64)
	if _, _, err := s.SliceAll([]slicing.Criterion{slicing.AddrCriterion(1 << 40)}); err == nil {
		t.Error("undefined address: want error")
	}
	// A batch mixing valid and invalid criteria fails as a whole.
	if _, _, err := s.SliceAll([]slicing.Criterion{
		slicing.AddrCriterion(addrs[0]), slicing.AddrCriterion(1 << 40),
	}); err == nil {
		t.Error("mixed batch with undefined address: want error")
	}
	outs, _, err := s.SliceAll(nil)
	if err != nil || len(outs) != 0 {
		t.Errorf("empty batch: outs=%d err=%v", len(outs), err)
	}
}

// TestConcurrentSlice runs sequential and batched LP queries from many
// goroutines over one slicer; under -race this validates the lock-free
// reads of the layout table and the MaxSubgraphEdges guard.
func TestConcurrentSlice(t *testing.T) {
	s, addrs := buildBatchLP(t, 16)
	cs := make([]slicing.Criterion, len(addrs))
	want := make([]*slicing.Slice, len(addrs))
	for i, a := range addrs {
		cs[i] = slicing.AddrCriterion(a)
		sl, _, err := s.Slice(cs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sl
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				for i := range cs {
					sl, _, err := s.Slice(cs[i])
					if err != nil || !sl.Equal(want[i]) {
						t.Errorf("worker %d: addr %d diverged (err=%v)", w, cs[i].Addr, err)
						return
					}
				}
			} else {
				outs, _, err := s.SliceAll(cs)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range outs {
					if !outs[i].Equal(want[i]) {
						t.Errorf("worker %d: batched addr %d diverged", w, cs[i].Addr)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
