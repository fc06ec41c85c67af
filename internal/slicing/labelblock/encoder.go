package labelblock

import (
	"runtime"
	"sync"
)

// Encoder shards label-block sealing across builder workers: the trace
// resolver (inherently sequential — every dependence resolution depends
// on the last-definition state the records before it established) keeps
// appending pairs, but each time a list's tail fills, the sealed run — one
// build epoch of that list — is handed to an encode worker instead of
// being delta-varint compressed inline. The builder reserves the block's
// slot immediately (header now: FirstTu/LastTu/N, payload later), so the
// list's sealed range stays searchable for straddle checks and later
// epochs graft after it deterministically, in submit order. Drain waits
// for the workers and patches every reserved slot with its encoded
// payload; the per-list block sequences that result are byte-identical to
// inline sealing.
//
// One Encoder belongs to one graph build (its lists must not be read
// until Drain). Workers own private Arenas, so encoding allocates without
// synchronization.
type Encoder struct {
	jobs    chan *encJob
	wg      sync.WaitGroup
	mu      sync.Mutex
	done    []*encJob
	workers int
	blocks  int64
	drained bool
}

type encJob struct {
	l     *List
	idx   int // reserved slot in l.blocks
	pairs []Pair
	aux   []int32
	blk   Block
}

// NewEncoder starts an encode pool; workers <= 0 means GOMAXPROCS.
func NewEncoder(workers int) *Encoder {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Encoder{jobs: make(chan *encJob, 4*workers), workers: workers}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.run()
	}
	return e
}

// Workers reports the pool width (telemetry: build.epoch.workers).
func (e *Encoder) Workers() int { return e.workers }

// Blocks reports how many blocks were encoded off the builder's critical
// path (valid after Drain).
func (e *Encoder) Blocks() int64 { return e.blocks }

func (e *Encoder) run() {
	defer e.wg.Done()
	ar := NewArena()
	var local []*encJob
	for j := range e.jobs {
		j.blk = EncodeBlock(ar, j.pairs, j.aux)
		local = append(local, j)
	}
	e.mu.Lock()
	e.done = append(e.done, local...)
	e.mu.Unlock()
}

func (e *Encoder) submit(l *List, idx int, pairs []Pair, aux []int32) {
	e.blocks++
	e.jobs <- &encJob{l: l, idx: idx, pairs: pairs, aux: aux}
}

// Drain finishes the pool and patches every reserved block slot with its
// encoded payload. Must be called before the lists are compacted or read;
// the encoder accepts no further work afterwards. Safe to call twice.
func (e *Encoder) Drain() {
	if e == nil || e.drained {
		return
	}
	e.drained = true
	close(e.jobs)
	e.wg.Wait()
	for _, j := range e.done {
		j.l.blocks[j.idx].Data = j.blk.Data
	}
	e.done = nil
}

// AppendEnc is Append with epoch-parallel sealing: a filled tail that can
// seal cleanly is submitted to enc's workers and replaced by a reserved
// block whose payload Drain patches in. A nil enc is exactly Append.
func (l *List) AppendEnc(ar *Arena, enc *Encoder, p Pair, aux int32) {
	if enc == nil {
		l.Append(ar, p, aux)
		return
	}
	if len(l.tail) > 0 && p.Tu < l.tail[len(l.tail)-1].Tu {
		l.flags |= flagDirty
	}
	l.tail = append(l.tail, p)
	if l.hasAux() {
		l.aux = append(l.aux, aux)
	}
	l.n++
	if len(l.tail) >= BlockSize {
		l.sealAsync(ar, enc)
	}
}

// sealAsync is compressTail with the EncodeBlock calls shipped to the
// encoder. The straddle rule is identical: a tail reaching back into the
// sealed range stays resident for Repack at finalization.
func (l *List) sealAsync(ar *Arena, enc *Encoder) {
	dedupe := l.flags&flagDedupe != 0
	l.sortTail(dedupe)
	if len(l.tail) == 0 {
		return
	}
	if len(l.blocks) > 0 && l.tail[0].Tu <= l.blocks[len(l.blocks)-1].LastTu {
		l.flags |= flagStraddle
		return
	}
	for off := 0; off < len(l.tail); off += BlockSize {
		end := min(off+BlockSize, len(l.tail))
		run := l.tail[off:end]
		var a []int32
		if l.hasAux() {
			a = l.aux[off:end]
		}
		enc.submit(l, len(l.blocks), run, a)
		l.blocks = append(l.blocks, Block{
			FirstTu: run[0].Tu,
			LastTu:  run[len(run)-1].Tu,
			N:       int32(len(run)),
			HasAux:  l.hasAux(),
		})
	}
	// The tail's backing arrays now belong to the submitted jobs; refill
	// fresh (the arena free list cannot recycle across goroutines).
	l.tail = make([]Pair, 0, BlockSize)
	if l.hasAux() {
		l.aux = make([]int32, 0, BlockSize)
	} else {
		l.aux = nil
	}
}
