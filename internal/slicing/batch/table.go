package batch

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// The visited table: a power-of-two set of shards, each an open-addressing
// bucket array over slab-allocated entries. Entries never move once
// created (slabs are fixed-capacity chunks), so workers hold *entry across
// shard growth; only the bucket index array is rehashed, under the shard's
// write lock. The common revisit path is: read-lock, probe a few buckets,
// CAS the mask — no allocation, no map hashing. A one-worker run owns the
// table outright and skips the locks and atomics (the shared argument of
// visit, memo and publish).

// entry's mask and exp are plain words rather than sync/atomic types so
// that a one-worker run, the only goroutine that can reach its table,
// uses them without atomic instructions; shared runs access them only
// through sync/atomic.
type entry struct {
	k1, k2 uint64
	mask   uint64         // claimed criterion bits
	exp    unsafe.Pointer // memoized *Expansion, nil until published
}

// memo returns the entry's published expansion, or nil.
func (e *entry) memo(shared bool) *Expansion {
	if shared {
		return (*Expansion)(atomic.LoadPointer(&e.exp))
	}
	return (*Expansion)(e.exp)
}

// publish memoizes x unless a racing worker already did, and reports
// whether x is the published expansion.
func (e *entry) publish(x *Expansion, shared bool) bool {
	if shared {
		return atomic.CompareAndSwapPointer(&e.exp, nil, unsafe.Pointer(x))
	}
	e.exp = unsafe.Pointer(x)
	return true
}

const (
	entryChunkShift = 9 // 512 entries per slab chunk
	// shardBits is the hash bits the shard index may take (at most 64
	// shards). Bucket probes start from the bits above them, so every
	// bucket of a shard can be a key's home slot.
	shardBits = 6
)

type shard struct {
	mu      sync.RWMutex
	buckets []int32 // entry index + 1; 0 = empty
	chunks  [][]entry
	count   int
}

type table struct {
	shards []shard
	smask  uint64
}

// newTable sizes the shard set to the worker count: enough shards that
// concurrent inserts rarely collide, and a single shard for a one-worker
// run, which never contends.
func newTable(workers int) *table {
	n := 1
	if workers > 1 {
		n = 8
		for n < workers*4 {
			n <<= 1
		}
		n = min(n, 1<<shardBits)
	}
	return &table{shards: make([]shard, n), smask: uint64(n - 1)}
}

// localTables recycles one-worker tables: a single query's visited table
// is most of what it allocates, and the next query can reuse its entry
// chunks and bucket array.
var localTables = sync.Pool{New: func() any { return newTable(1) }}

// release empties a one-shard table and returns it to localTables. The
// used entries are zeroed, so no memo outlives its run; a bucket array
// far larger than the run needed is dropped rather than cleared, so one
// large query does not make every later small one clear its buckets.
func (t *table) release() {
	sh := &t.shards[0]
	if len(sh.buckets) > 16*sh.count {
		sh.buckets = nil
	} else {
		clear(sh.buckets)
	}
	for i := 0; i < sh.count; i += 1 << entryChunkShift {
		clear(sh.chunks[i>>entryChunkShift])
	}
	sh.count = 0
	localTables.Put(t)
}

// hash mixes both key words (splitmix64 finalizer over their combination).
func hash(k Key) uint64 {
	h := k.K1*0x9e3779b97f4a7c15 + k.K2
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// visit merges mask into k's entry, creating it if needed, and returns the
// newly claimed bits (0 if every bit was already present) plus the stable
// entry. shared selects the locked, CAS-merged path concurrent workers
// need.
func (t *table) visit(k Key, mask uint64, shared bool) (uint64, *entry) {
	h := hash(k)
	sh := &t.shards[h&t.smask]
	h >>= shardBits
	if !shared {
		e := sh.get(k, h)
		nv := mask &^ e.mask
		e.mask |= nv
		return nv, e
	}
	sh.mu.RLock()
	e := sh.lookup(k, h)
	sh.mu.RUnlock()
	if e == nil {
		sh.mu.Lock()
		e = sh.get(k, h)
		sh.mu.Unlock()
	}
	for {
		old := atomic.LoadUint64(&e.mask)
		nv := mask &^ old
		if nv == 0 {
			return 0, e
		}
		if atomic.CompareAndSwapUint64(&e.mask, old, old|nv) {
			return nv, e
		}
	}
}

// lookup probes under the read lock. The returned entry outlives the lock:
// entries live in fixed chunks that are never reallocated.
func (sh *shard) lookup(k Key, h uint64) *entry {
	n := uint64(len(sh.buckets))
	if n == 0 {
		return nil
	}
	for i := h & (n - 1); sh.buckets[i] != 0; i = (i + 1) & (n - 1) {
		if e := sh.at(int(sh.buckets[i] - 1)); e.k1 == k.K1 && e.k2 == k.K2 {
			return e
		}
	}
	return nil
}

func (sh *shard) at(idx int) *entry {
	return &sh.chunks[idx>>entryChunkShift][idx&(1<<entryChunkShift-1)]
}

// get returns k's entry, allocating it at the probe sequence's first empty
// bucket when absent. The caller holds the write lock (or owns the
// table); another worker may have inserted k since a read-locked lookup
// missed, which the probe here catches.
func (sh *shard) get(k Key, h uint64) *entry {
	if (sh.count+1)*4 > len(sh.buckets)*3 {
		sh.grow()
	}
	n := uint64(len(sh.buckets))
	i := h & (n - 1)
	for ; sh.buckets[i] != 0; i = (i + 1) & (n - 1) {
		if e := sh.at(int(sh.buckets[i] - 1)); e.k1 == k.K1 && e.k2 == k.K2 {
			return e
		}
	}
	if sh.count>>entryChunkShift == len(sh.chunks) {
		sh.chunks = append(sh.chunks, make([]entry, 1<<entryChunkShift))
	}
	idx := sh.count
	sh.count++
	sh.buckets[i] = int32(idx + 1)
	e := sh.at(idx)
	e.k1, e.k2 = k.K1, k.K2
	return e
}

// grow doubles the bucket array (64 buckets to start) and rehashes the
// indices; entries stay put.
func (sh *shard) grow() {
	old := sh.buckets
	sh.buckets = make([]int32, max(64, 2*len(old)))
	n := uint64(len(sh.buckets))
	for _, b := range old {
		if b == 0 {
			continue
		}
		e := sh.at(int(b - 1))
		i := (hash(Key{e.k1, e.k2}) >> shardBits) & (n - 1)
		for sh.buckets[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		sh.buckets[i] = b
	}
}
