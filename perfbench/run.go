package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	slicer "dynslice"
	"dynslice/internal/bench"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
)

// maxOpSeconds caps an op phase whatever --seconds asks, so that a run
// with its set-up ends well inside three minutes.
const maxOpSeconds = 90

// session is a workload's recording after the timed set-ups, with what
// they measured.
type session struct {
	bw     bench.Workload
	rec    *slicer.Recording
	refs   *workloadRefs
	failed int // set-ups that missed the snapshot they had to read

	setupS, setupAllocMB, liveHeapMB, diskMB []float64
}

// attachObservers gives a Record the query observers a served session
// has: a flight-recorder ring, rolling stats and a causal tracer, with
// no file sinks.
func attachObservers(o *slicer.RunOptions) {
	o.QueryLog = querylog.New(0)
	o.QueryStats = stats.New()
	o.QueryTrace = qtrace.New(0, qtrace.DefaultPolicy())
}

// setUp runs the workload's set-up: an untimed prep and warm-up Record,
// then n timed ones, with the query observers attached when observe is
// set. Each Record gets a fresh directory under dir; the last recording
// stays open for the op phase.
func (w *workload) setUp(dir string, n int, observe bool) (*session, error) {
	bw, err := w.source()
	if err != nil {
		return nil, err
	}
	refs, err := loadRefs(w)
	if err != nil {
		return nil, err
	}
	p, err := slicer.Compile(bw.Src)
	if err != nil {
		return nil, err
	}
	s := &session{bw: bw, refs: refs}
	snapDir := filepath.Join(dir, "snap")
	if w.mode == modeSnapshot {
		// The timed set-ups read the snapshot this untimed prep writes.
		o := w.runOptions(bw, dir, snapDir)
		o.Snapshot = slicer.SnapshotOptions{Dir: snapDir, Write: true}
		rec, err := p.Record(o)
		if err != nil {
			return nil, fmt.Errorf("snapshot prep: %w", err)
		}
		rec.Close()
	}
	for i := 0; i <= n; i++ { // Record 0 is the untimed warm-up
		if s.rec != nil {
			s.rec.Close()
			s.rec = nil
		}
		runDir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			return nil, err
		}
		sd := snapDir
		if w.mode == modeBuild {
			sd = filepath.Join(runDir, "snap")
		}
		o := w.runOptions(bw, runDir, sd)
		if observe {
			attachObservers(&o)
		}
		runtime.GC()
		a0 := allocBytes()
		t0 := time.Now()
		rec, err := p.Record(o)
		el := time.Since(t0)
		a1 := allocBytes()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		s.rec = rec
		if i == 0 {
			continue
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		disk, err := w.diskBytes(rec, sd)
		if err != nil {
			return nil, err
		}
		if w.mode == modeSnapshot && rec.Source() != "snapshot" {
			s.failed++
		}
		s.setupS = append(s.setupS, el.Seconds())
		s.setupAllocMB = append(s.setupAllocMB, mb(a1-a0))
		s.liveHeapMB = append(s.liveHeapMB, mb(ms.HeapAlloc))
		s.diskMB = append(s.diskMB, mb(disk))
	}
	if err := refs.matches(s.rec.Criteria()); err != nil {
		return nil, err
	}
	return s, nil
}

// diskBytes is the trace file plus the snapshot image the recording
// depends on.
func (w *workload) diskBytes(rec *slicer.Recording, snapDir string) (uint64, error) {
	var n uint64
	if path := rec.TracePath(); path != "" {
		fi, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		n += uint64(fi.Size())
	}
	if w.mode == modeDeferred {
		return n, nil
	}
	err := filepath.Walk(snapDir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += uint64(fi.Size())
		}
		return err
	})
	return n, err
}

// opStats is what an op phase measured.
type opStats struct {
	lat      []float64 // per-op wall time, ms
	criteria int       // criteria answered
	busy     time.Duration
	alloc    uint64
	failed   int
	addrs    [][]int64 // the ops run, in order

	hits, misses int64 // engine cache lookups
}

// runOps drives the closed loop: one client, each op waiting for the
// previous answer. It runs at least minOps ops and whole stream units,
// and stops at the first unit boundary after budget. Every answer is
// checked against the references.
func (w *workload) runOps(s *session, seed int64, budget time.Duration, minOps int) (*opStats, error) {
	crit := s.rec.Criteria()
	// The warm-up goes to its own engine, so its answer does not seed
	// the timed engine's cache.
	wu := warmupOp(w, crit, s.refs)
	slices, err := call(s.rec.Engine(w.engineOptions()), wu)
	if err == nil {
		err = checkAll(s.refs, wu, slices)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	e := s.rec.Engine(w.engineOptions())
	st := w.stream(rand.New(rand.NewSource(seed)), crit, s.refs)
	out := &opStats{}
	start := time.Now()
	for n := 0; ; n++ {
		if n%st.unit == 0 && n >= minOps && time.Since(start) >= budget || time.Since(start) >= maxOpSeconds*time.Second {
			break
		}
		addrs := st.next()
		runtime.GC()
		a0 := allocBytes()
		t0 := time.Now()
		slices, err := call(e, addrs)
		d := time.Since(t0)
		out.alloc += allocBytes() - a0
		out.busy += d
		out.lat = append(out.lat, float64(d.Nanoseconds())/1e6)
		out.criteria += len(addrs)
		out.addrs = append(out.addrs, addrs)
		if err == nil {
			err = checkAll(s.refs, addrs, slices)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", n, err)
		}
	}
	out.hits, out.misses = e.CacheStats()
	return out, nil
}

// call runs one op on the engine: a batch when the op has several
// criteria, a single query otherwise.
func call(e *slicer.QueryEngine, addrs []int64) ([]*slicer.Slice, error) {
	if len(addrs) > 1 {
		return e.SliceAddrs(addrs)
	}
	sl, err := e.SliceAddr(addrs[0])
	return []*slicer.Slice{sl}, err
}

func checkAll(refs *workloadRefs, addrs []int64, slices []*slicer.Slice) error {
	for i, a := range addrs {
		if err := refs.check(a, slices[i].Raw()); err != nil {
			return err
		}
	}
	return nil
}

// untraced runs one workload with tracing off and returns the
// end-to-end result.
func untraced(w *workload, dir string, seed int64, seconds float64, minOps int) (*result, error) {
	s, err := w.setUp(dir, w.setups, w.observe)
	if err != nil {
		return nil, err
	}
	defer s.rec.Close()
	ops, err := w.runOps(s, seed, time.Duration(seconds*float64(time.Second)), minOps)
	if err != nil {
		return nil, err
	}
	n := len(ops.lat)
	r := &result{Attempted: n + w.setups, Failed: ops.failed + s.failed}
	r.add("setup_s", "s", median(s.setupS))
	r.add("setup_alloc_mb", "MB", median(s.setupAllocMB))
	r.add("live_heap_mb", "MB", median(s.liveHeapMB))
	r.add("disk_mb", "MB", median(s.diskMB))
	r.add("query_p50_ms", "ms", percentile(ops.lat, 0.5))
	r.add("query_p90_ms", "ms", percentile(ops.lat, 0.9))
	r.add("queries_per_s", "1/s", float64(ops.criteria)/ops.busy.Seconds())
	r.add("query_alloc_mb", "MB", mb(ops.alloc)/float64(n))
	r.note("%s: %d ops (%d criteria) timed, p50 and p90 over n=%d; %d timed set-ups",
		w.name, n, ops.criteria, n, w.setups)
	r.note("failed_share = %d/%d = %.4f", r.Failed, r.Attempted, float64(r.Failed)/float64(r.Attempted))
	return r, nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank q-quantile.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}
