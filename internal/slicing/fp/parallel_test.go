package fp

import (
	"sync"
	"testing"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/telemetry"
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

func definedAddrs(g *Graph) []int64 {
	var addrs []int64
	for a, ts1 := range g.defTs {
		if ts1 != 0 {
			addrs = append(addrs, int64(a))
		}
	}
	return addrs
}

// TestSliceAllMatchesSequential: the batched FP traversal must reproduce
// the single-criterion slice for every defined address, crossing the
// 64-criterion chunk boundary. Slice, SliceObserved and a one-criterion
// SliceAll are the same kernel run, so they must agree on the slice and
// on the traversal stats too. No key of a valid graph falls outside the
// kernel's timestamp range or its execution's width.
func TestSliceAllMatchesSequential(t *testing.T) {
	g, _ := build(t, batchSrc)
	reg := telemetry.New()
	g.SetTelemetry(reg)
	defer func() {
		if n := reg.Counter("slice.batch.dropped_keys").Value(); n != 0 {
			t.Errorf("%d keys dropped on a valid graph", n)
		}
	}()
	addrs := definedAddrs(g)
	if len(addrs) <= 64 {
		t.Fatalf("want >64 criteria, have %d", len(addrs))
	}
	cs := make([]slicing.Criterion, len(addrs))
	for i, a := range addrs {
		cs[i] = slicing.AddrCriterion(a)
	}
	batched, _, err := g.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		seq, st, err := g.Slice(c)
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Equal(batched[i]) {
			t.Fatalf("addr %d: batched (%d stmts) != sequential (%d stmts)",
				c.Addr, batched[i].Len(), seq.Len())
		}
		obs, ost, err := g.SliceObserved(c, explain.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		one, est, err := g.SliceAll([]slicing.Criterion{c})
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Equal(obs) || !seq.Equal(one[0]) {
			t.Fatalf("addr %d: Slice, SliceObserved and one-criterion SliceAll disagree", c.Addr)
		}
		for _, o := range []*slicing.Stats{ost, est} {
			if o.Instances != st.Instances || o.LabelProbes != st.LabelProbes {
				t.Fatalf("addr %d: stats %+v, Slice reported %+v", c.Addr, *o, *st)
			}
		}
	}
	if _, _, err := g.SliceAll([]slicing.Criterion{slicing.AddrCriterion(1 << 40)}); err == nil {
		t.Error("undefined address: want error")
	}
}

// TestSliceAllWorkerSweep crosses SetWorkers values — a no-op kept for
// callers that still size a pool — with criteria counts straddling the
// 64-bit chunk boundaries (1, 63, 64, 65, and 200 with duplicated
// addresses): every combination must reproduce the sequential answer
// slice for slice.
func TestSliceAllWorkerSweep(t *testing.T) {
	g, _ := build(t, batchSrc)
	addrs := definedAddrs(g)
	seq := map[int64]*slicing.Slice{}
	for _, a := range addrs {
		sl, _, err := g.Slice(slicing.AddrCriterion(a))
		if err != nil {
			t.Fatal(err)
		}
		seq[a] = sl
	}
	for _, workers := range []int{1, 2, 8} {
		g.SetWorkers(workers)
		for _, n := range []int{1, 63, 64, 65, 200} {
			picked := make([]int64, n)
			cs := make([]slicing.Criterion, n)
			for i := 0; i < n; i++ {
				picked[i] = addrs[i%len(addrs)] // >len(addrs) duplicates criteria
				cs[i] = slicing.AddrCriterion(picked[i])
			}
			outs, _, err := g.SliceAll(cs)
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, a := range picked {
				if !outs[i].Equal(seq[a]) {
					t.Fatalf("workers=%d n=%d: addr %d diverged from sequential", workers, n, a)
				}
			}
		}
	}
	g.SetWorkers(0)
}

// TestConcurrentSlice checks the FP graph is safe for parallel post-build
// queries (meaningful under -race).
func TestConcurrentSlice(t *testing.T) {
	g, _ := build(t, batchSrc)
	addrs := definedAddrs(g)
	cs := make([]slicing.Criterion, len(addrs))
	want := make([]*slicing.Slice, len(addrs))
	for i, a := range addrs {
		cs[i] = slicing.AddrCriterion(a)
		sl, _, err := g.Slice(cs[i])
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
				for i, c := range cs {
					sl, _, err := g.Slice(c)
					if err != nil || !sl.Equal(want[i]) {
						t.Errorf("worker %d: addr %d diverged (err=%v)", w, c.Addr, err)
						return
					}
				}
			} else {
				outs, _, err := g.SliceAll(cs)
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
