package opt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/labelblock"
)

// Hybrid mode implements the algorithm sketched in the paper's §4.2
// ("Combining idea behind LP with OPT"): the compacted graph is built in
// memory as usual, but whenever the accumulated explicit labels exceed a
// budget, the current *epoch* of labels is written to disk and dropped
// from memory. Because node timestamps are (per edge) monotone, a label's
// epoch is determined by its consumer timestamp, so slicing loads at most
// one epoch file at a time on demand — trading slicing-time I/O for a
// memory ceiling, which is what lets the representation scale to runs
// whose compacted labels still exceed RAM.
//
// Epoch files carry the same delta-varint block framing the in-memory
// lists use (labelblock.WriteBlocks), so flushing moves sealed blocks to
// disk mostly verbatim and on-disk epochs shrink by the same factor as
// the resident graph. Labels appended out of timestamp order by suspended
// superblock executions (recursion) would fall outside their epoch's
// range; the flush keeps such stragglers in memory, so every pair lives
// in exactly one place: the in-memory list or its epoch's file.

// epoch is one flushed label block.
type epoch struct {
	tsStart, tsEnd int64 // consumer-timestamp range [tsStart, tsEnd)
	path           string
	pairs          int64
}

// hybridState holds the disk-epoch machinery of a graph.
type hybridState struct {
	dir        string
	budget     int64 // max in-memory pairs before a flush
	sinceFlush int64
	tsStart    int64
	epochs     []epoch
	flushed    int64

	// One-epoch cache for slicing, shared by concurrent queries. Entries
	// stay block-encoded; lookups search them in place.
	mu          sync.Mutex
	cachedEpoch int
	cache       map[int32][]labelblock.Block
	loads       int64
}

// EnableHybrid turns on §4.2 disk-epoch mode: whenever more than budget
// labels are resident, they are flushed to a new epoch file under dir.
// Must be called before feeding the trace.
func (g *Graph) EnableHybrid(dir string, budget int64) error {
	if budget <= 0 {
		budget = 1 << 18
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g.hybrid = &hybridState{dir: dir, budget: budget, cachedEpoch: -1}
	return nil
}

// HybridEpochs reports how many epochs were flushed (0 when disabled).
func (g *Graph) HybridEpochs() int {
	if g.hybrid == nil {
		return 0
	}
	return len(g.hybrid.epochs)
}

// HybridLoads reports how many epoch files slicing loaded.
func (g *Graph) HybridLoads() int64 {
	if g.hybrid == nil {
		return 0
	}
	return g.hybrid.loads
}

// ResidentPairs returns the labels currently held in memory.
func (g *Graph) ResidentPairs() int64 {
	var n int64
	for _, l := range g.allLabels {
		n += int64(l.list.Len())
	}
	return n
}

// maybeFlush is called after each node execution in hybrid mode.
func (g *Graph) maybeFlush() {
	h := g.hybrid
	if h == nil {
		return
	}
	h.sinceFlush++
	// Counting resident pairs exactly on every node execution would be
	// quadratic; sample every 1024 executions.
	if h.sinceFlush%1024 != 0 {
		return
	}
	if g.ResidentPairs() < h.budget {
		return
	}
	if err := g.flushEpoch(); err != nil {
		// Disk trouble: disable hybrid mode rather than corrupt the graph;
		// labels simply stay in memory.
		g.hybrid = nil
	}
}

// flushEpoch writes every in-range resident pair to a new epoch file:
// per label, the list is split at the epoch start timestamp and the
// in-range blocks stream out through the shared block codec.
func (g *Graph) flushEpoch() error {
	h := g.hybrid
	start, end := h.tsStart, g.ts
	if end <= start {
		return nil
	}
	path := filepath.Join(h.dir, fmt.Sprintf("epoch%06d.labels", len(h.epochs)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	var written int64
	for id, l := range g.allLabels {
		if l.list.Len() == 0 {
			continue
		}
		blocks := l.list.Split(g.mem, start)
		if len(blocks) == 0 {
			continue
		}
		n := binary.PutUvarint(scratch[:], uint64(id))
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		if err := labelblock.WriteBlocks(bw, blocks); err != nil {
			return err
		}
		var moved int64
		for i := range blocks {
			moved += int64(blocks[i].N)
		}
		l.flushed += moved
		written += moved
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	h.epochs = append(h.epochs, epoch{tsStart: start, tsEnd: end, path: path, pairs: written})
	h.flushed += written
	h.tsStart = end
	return nil
}

// findLabel searches l for tu: resident pairs first (through cc, the
// run's cursor table), then the epoch file whose range
// contains tu (loaded on demand, one-epoch cache). An observer is told
// about each actual epoch-file load charged to its query.
func (g *Graph) findLabel(l *Labels, tu int64, cc *labelblock.CursorCache, obs *explain.Recorder) (int64, int64, bool) {
	td, probes, ok := l.findCursor(cc, tu)
	if ok || g.hybrid == nil {
		return td, probes, ok
	}
	h := g.hybrid
	ei := sort.Search(len(h.epochs), func(i int) bool { return h.epochs[i].tsEnd > tu })
	if ei >= len(h.epochs) || h.epochs[ei].tsStart > tu {
		return 0, probes, false
	}
	// The one-slot cache is shared mutable state: serialize the load and
	// the probe so a concurrent load cannot swap the cache mid-search.
	h.mu.Lock()
	defer h.mu.Unlock()
	if obs != nil && h.cachedEpoch != ei {
		obs.HybridLoad()
	}
	if err := h.load(ei); err != nil {
		return 0, probes, false
	}
	td, _, p, ok := labelblock.FindBlocks(h.cache[l.id], tu)
	return td, probes + p, ok
}

// load reads an epoch file into the single-slot cache, keeping each
// label's blocks encoded.
func (h *hybridState) load(ei int) error {
	if h.cachedEpoch == ei {
		return nil
	}
	f, err := os.Open(h.epochs[ei].path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	cache := map[int32][]labelblock.Block{}
	for {
		id, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		blocks, err := labelblock.ReadBlocks(br, false)
		if err != nil {
			return err
		}
		cache[int32(id)] = blocks
	}
	h.cache = cache
	h.cachedEpoch = ei
	h.loads++
	return nil
}
