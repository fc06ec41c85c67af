package slicer_test

import (
	"sync"
	"testing"

	slicer "dynslice"
	"dynslice/internal/telemetry"
)

const engineSrc = `
var total = 0;
var arr[24];

func triple(v) {
	return v * 3;
}

func main() {
	var i = 0;
	while (i < 24) {
		arr[i] = triple(i);
		total = total + arr[i];
		i = i + 1;
	}
	print(total);
}`

// engineAddrs returns the criterion addresses the engine tests query:
// every element of arr plus the scalar total.
func engineAddrs(t *testing.T, rec *slicer.Recording) []int64 {
	t.Helper()
	base := globalAddr(t, rec, "arr")
	addrs := make([]int64, 0, 25)
	for i := int64(0); i < 24; i++ {
		addrs = append(addrs, base+i)
	}
	return append(addrs, globalAddr(t, rec, "total"))
}

func globalAddr(t *testing.T, _ *slicer.Recording, name string) int64 {
	t.Helper()
	p, err := slicer.Compile(engineSrc)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.GlobalAddr(name)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestSliceAddrsMatchesSequential: the batched façade API must agree with
// per-address queries on every algorithm.
func TestSliceAddrsMatchesSequential(t *testing.T) {
	rec := record(t, engineSrc)
	addrs := engineAddrs(t, rec)
	for _, s := range []*slicer.Slicer{rec.OPT(), rec.FP(), rec.LP()} {
		batched, err := s.SliceAddrs(addrs)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(batched) != len(addrs) {
			t.Fatalf("%s: got %d slices for %d addrs", s.Name(), len(batched), len(addrs))
		}
		for i, a := range addrs {
			seq, err := s.SliceAddr(a)
			if err != nil {
				t.Fatalf("%s addr %d: %v", s.Name(), a, err)
			}
			if !seq.Raw().Equal(batched[i].Raw()) {
				t.Errorf("%s addr %d: batched slice != sequential", s.Name(), a)
			}
		}
	}
	if outs, err := rec.OPT().SliceAddrs(nil); err != nil || outs != nil {
		t.Errorf("empty batch: outs=%v err=%v", outs, err)
	}
}

// TestQueryEngineCache: repeated queries must come from the LRU cache,
// and eviction must keep the cache bounded.
func TestQueryEngineCache(t *testing.T) {
	reg := telemetry.New()
	p, err := slicer.Compile(engineSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Record(slicer.RunOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	addrs := engineAddrs(t, rec)

	e := rec.OPT().Engine(slicer.EngineOptions{Workers: 2, CacheSize: 4})
	a, b := addrs[0], addrs[1]
	first, err := e.SliceAddr(a)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.SliceAddr(a)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("second query of same addr should be the cached *Slice")
	}
	if _, err := e.SliceAddr(b); err != nil {
		t.Fatal(err)
	}
	hits, misses := e.CacheStats()
	if hits != 1 || misses != 2 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/2", hits, misses)
	}
	if reg.Counter("engine.cache.hits").Value() != 1 {
		t.Errorf("telemetry hits = %d, want 1", reg.Counter("engine.cache.hits").Value())
	}

	// Query more addresses than the cache holds; the earliest entry must
	// have been evicted, so re-querying it is a miss.
	for _, addr := range addrs[2:8] {
		if _, err := e.SliceAddr(addr); err != nil {
			t.Fatal(err)
		}
	}
	_, missesBefore := e.CacheStats()
	if _, err := e.SliceAddr(a); err != nil {
		t.Fatal(err)
	}
	if _, missesAfter := e.CacheStats(); missesAfter != missesBefore+1 {
		t.Error("evicted address should miss the cache")
	}
}

// TestQueryEngineConcurrent hammers one engine from many goroutines; the
// results must match the plain sequential API (run with -race).
func TestQueryEngineConcurrent(t *testing.T) {
	rec := record(t, engineSrc)
	addrs := engineAddrs(t, rec)
	s := rec.OPT()
	want := make(map[int64]*slicer.Slice, len(addrs))
	for _, a := range addrs {
		sl, err := s.SliceAddr(a)
		if err != nil {
			t.Fatal(err)
		}
		want[a] = sl
	}
	e := s.Engine(slicer.EngineOptions{Workers: 4, CacheSize: 8})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				for _, a := range addrs {
					sl, err := e.SliceAddr(a)
					if err != nil || !sl.Raw().Equal(want[a].Raw()) {
						t.Errorf("worker %d: addr %d diverged (err=%v)", w, a, err)
						return
					}
				}
			} else {
				outs, err := e.SliceAddrs(addrs)
				if err != nil {
					t.Error(err)
					return
				}
				for i, a := range addrs {
					if !outs[i].Raw().Equal(want[a].Raw()) {
						t.Errorf("worker %d: batched addr %d diverged", w, a)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Duplicate addresses in one batch resolve to the same result.
	dup := []int64{addrs[0], addrs[1], addrs[0]}
	outs, err := e.SliceAddrs(dup)
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].Raw().Equal(outs[2].Raw()) {
		t.Error("duplicate criteria in one batch should agree")
	}
}

// TestEngineExplainConcurrent mixes observed queries with batched plain
// queries on one engine (run with -race). Explain bypasses the cache
// but inserts its slice, so a later SliceAddr for the same address must
// hit and agree.
func TestEngineExplainConcurrent(t *testing.T) {
	rec := record(t, engineSrc)
	addrs := engineAddrs(t, rec)
	s := rec.OPT()
	want := make(map[int64]*slicer.Slice, len(addrs))
	for _, a := range addrs {
		sl, err := s.SliceAddr(a)
		if err != nil {
			t.Fatal(err)
		}
		want[a] = sl
	}
	e := s.Engine(slicer.EngineOptions{Workers: 4, CacheSize: 8})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				for _, a := range addrs {
					ex, err := e.Explain(a)
					if err != nil {
						t.Errorf("worker %d: explain %d: %v", w, a, err)
						return
					}
					if !ex.Slice.Raw().Equal(want[a].Raw()) {
						t.Errorf("worker %d: explained addr %d diverged", w, a)
						return
					}
					if ex.Profile.Edges == 0 && ex.Slice.Stmts > 1 {
						t.Errorf("worker %d: addr %d: no edges recorded", w, a)
						return
					}
				}
			} else {
				outs, err := e.SliceAddrs(addrs)
				if err != nil {
					t.Error(err)
					return
				}
				for i, a := range addrs {
					if !outs[i].Raw().Equal(want[a].Raw()) {
						t.Errorf("worker %d: batched addr %d diverged", w, a)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// The explained slice is inserted: an immediately following plain
	// query for the same address must hit the cache.
	if _, err := e.Explain(addrs[0]); err != nil {
		t.Fatal(err)
	}
	hitsBefore, _ := e.CacheStats()
	if _, err := e.SliceAddr(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if hitsAfter, _ := e.CacheStats(); hitsAfter <= hitsBefore {
		t.Error("slice produced by Explain was not cached")
	}
}
