package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// This file holds the intra-restart primitives: the fixed-boundary chunk
// scheduler every algorithm's hot point loops run through, the ordered
// map-reduce on top of it, and the per-worker scratch pool. The shared
// invariant, inherited by every caller: chunk boundaries depend only on
// chunkSize — never on the worker count or on scheduling — so output is
// byte-identical for every Workers/ChunkSize combination.
//
// Both entry points take a ctx and return an error: before every chunk they
// pass a cooperative gate (the chunk-execution fault hook, then the
// context), and a panic inside a chunk is contained into a *PanicError on
// whichever goroutine ran it. Their serial paths allocate nothing.

// AlignChunk aligns an intra-restart chunk size to the storage shard
// granularity of the dataset being scanned. With shardRows > 0 (a
// shard-backed dataset — dataset.Dataset.ShardRows) it returns shardRows, so
// every chunk of ParallelChunks / MapChunks covers exactly one shard and a
// worker's scan touches only that shard's backing slice; with shardRows == 0
// (flat storage) chunkSize passes through unchanged. Alignment is pure
// scheduling and memory locality: chunk boundaries never change output
// (TestConformanceChunkSizeInvariance), so the sharded and flat paths stay
// byte-identical (TestConformanceShardedVsFlat).
//
// Align only loops whose chunk domain IS the row range [0, n) — SSPC and
// CLARANS assignment, PROCLUS's point passes. Loops that chunk some other
// domain (HARP's active-node list, DOC's shrinking remaining-point subset)
// gain no locality from shard-sized chunks and can lose their parallelism
// to oversized chunk counts; they keep their own ChunkSize.
func AlignChunk(chunkSize, shardRows int) int {
	if shardRows > 0 {
		return shardRows
	}
	return chunkSize
}

// chunkGate is the cooperative check taken before every chunk dispatch: the
// fault-injection hook first (a single atomic load when disarmed), then the
// context. A canceled ctx surfaces as context.Cause(ctx), so a caller that
// canceled with a cause sees that cause, and a plain cancel or deadline sees
// context.Canceled / context.DeadlineExceeded. Neither check allocates, which
// keeps the serial chunk path inside the zero-alloc kernel pins.
func chunkGate(ctx context.Context) error {
	if err := faults.Check(faults.SiteChunkExec); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// chunkEnd returns the exclusive end of the chunk starting at lo.
func chunkEnd(lo, chunkSize, total int) int {
	if hi := lo + chunkSize; hi < total {
		return hi
	}
	return total
}

// ParallelChunks splits [0, total) into contiguous ranges of chunkSize
// elements (the last one shorter; chunkSize <= 0 means one chunk) and runs
// fn over them on up to `workers` goroutines. Chunk boundaries depend only
// on chunkSize, never on the worker count, so a caller whose fn writes
// exclusively to its own [lo, hi) output region produces byte-identical
// results for every workers value.
//
// fn also receives a worker slot index in [0, workers) that is stable for
// the duration of the call, so callers can hand each worker its own scratch
// buffers (see Scratch). Slot assignment is scheduling-dependent; fn must use
// the slot for scratch only, never to influence output values. workers <= 1
// or total <= chunkSize runs everything inline on slot 0.
//
// A non-nil error means the scan stopped early: ctx was canceled (the error
// is context.Cause(ctx), returned within one chunk boundary per worker), a
// chunk-execution fault was injected, or a chunk panicked (*PanicError).
// Already-dispatched chunks run to completion, so fn's writes stay confined
// to chunks the scheduler actually issued, but the caller must treat the
// partial output as garbage.
func ParallelChunks(ctx context.Context, total, chunkSize, workers int, fn func(worker, lo, hi int)) error {
	if total <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if chunkSize <= 0 {
		chunkSize = total
	}
	if workers <= 1 || total <= chunkSize {
		return serialChunks(ctx, total, chunkSize, fn)
	}
	return parallelChunks(ctx, total, chunkSize, workers, fn)
}

// serialChunks is the inline path of ParallelChunks: one goroutine, slot 0,
// chunks in ascending order, and one deferred panic containment for the
// whole scan.
func serialChunks(ctx context.Context, total, chunkSize int, fn func(worker, lo, hi int)) (err error) {
	defer containPanic(&err)
	for lo := 0; lo < total; lo += chunkSize {
		if err := chunkGate(ctx); err != nil {
			return err
		}
		fn(0, lo, chunkEnd(lo, chunkSize, total))
	}
	return nil
}

// parallelChunks is the multi-goroutine tail, split out so the serial path
// above stays allocation-free: the chunk cursor, wait group, and error slots
// below are captured by the worker goroutines and therefore live on the heap,
// a cost only the path that actually spawns goroutines should pay.
//
// Each worker runs its chunks through serialChunks-style containment: a gate
// error is recorded with its chunk index (lowest index wins, so the reported
// error is scheduling-independent whenever a deterministic gate — an
// expired deadline, an armed fault — trips every worker), a panic is
// recorded as a *PanicError, and either flips stop so siblings cease pulling
// chunks. A panic outranks a gate error: it may be a genuine bug and must
// never be swallowed by a concurrent cancellation.
func parallelChunks(ctx context.Context, total, chunkSize, workers int, fn func(worker, lo, hi int)) error {
	chunks := (total + chunkSize - 1) / chunkSize
	if workers > chunks {
		workers = chunks
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		errChunk = -1
		firstErr error
		panicErr error
	)
	record := func(c int, err error) {
		errMu.Lock()
		var pe *PanicError
		if errors.As(err, &pe) {
			if panicErr == nil {
				panicErr = err
			}
		} else if errChunk < 0 || c < errChunk {
			errChunk, firstErr = c, err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for !stop.Load() {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				if err := runChunk(ctx, fn, worker, c*chunkSize, chunkSize, total); err != nil {
					record(c, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if panicErr != nil {
		return panicErr
	}
	return firstErr
}

// runChunk gates and runs the one chunk starting at lo on a pool goroutine,
// containing a panic from the gate or from fn — an uncontained panic would
// kill the process.
func runChunk(ctx context.Context, fn func(worker, lo, hi int), worker, lo, chunkSize, total int) (err error) {
	defer containPanic(&err)
	if err := chunkGate(ctx); err != nil {
		return err
	}
	fn(worker, lo, chunkEnd(lo, chunkSize, total))
	return nil
}

// MapChunks runs fn over the same fixed chunks as ParallelChunks, collects
// one R per chunk, and folds the per-chunk results serially in chunk-index
// order, seeded with the first chunk's result (a single chunk — the common
// case once a range fits chunkSize — returns fn's value directly, no fold
// call, no copy). The fold is the ordered serial reduction of the
// determinism contract: because chunk boundaries depend only on chunkSize
// and the fold visits chunks in ascending order, the returned value is
// identical for every workers count. Callers that need ChunkSize-invariance
// too must pick an fn/fold pair whose composition does not depend on where
// the boundaries fall (disjoint list concatenation, or sums that chunk
// splits leave bit-identical). total <= 0 returns the zero R.
//
// buf is an optional caller-owned per-chunk results buffer for the
// multi-worker path: when cap(buf) covers the chunk count its backing array
// is reused instead of allocating one slot per chunk every call, so a
// steady-state caller with a fixed chunk count (one map-reduce per
// iteration over a constant K) stays allocation-free beyond the goroutine
// spawns. Every slot is overwritten before the fold reads it; nil (or too
// small) allocates.
//
// Errors follow ParallelChunks; a non-nil error comes with the zero R — an
// interrupted reduction never folds.
func MapChunks[R any](ctx context.Context, total, chunkSize, workers int, buf []R,
	fn func(worker, lo, hi int) R, fold func(acc, chunk R) R) (R, error) {
	var zero R
	if total <= 0 {
		return zero, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if chunkSize <= 0 {
		chunkSize = total
	}
	if workers <= 1 || total <= chunkSize {
		acc, err := serialMap(ctx, total, chunkSize, fn, fold)
		if err != nil {
			return zero, err
		}
		return acc, nil
	}
	chunks := (total + chunkSize - 1) / chunkSize
	results := buf
	if cap(results) < chunks {
		results = make([]R, chunks)
	}
	results = results[:chunks]
	if err := parallelChunks(ctx, total, chunkSize, workers, func(worker, lo, hi int) {
		results[lo/chunkSize] = fn(worker, lo, hi)
	}); err != nil {
		return zero, err
	}
	acc := results[0]
	for _, r := range results[1:] {
		acc = fold(acc, r)
	}
	return acc, nil
}

// serialMap is the inline path of MapChunks, with serialChunks' gate and
// panic containment; on error its partial acc is discarded by the caller.
func serialMap[R any](ctx context.Context, total, chunkSize int,
	fn func(worker, lo, hi int) R, fold func(acc, chunk R) R) (acc R, err error) {
	defer containPanic(&err)
	for lo := 0; lo < total; lo += chunkSize {
		if err := chunkGate(ctx); err != nil {
			return acc, err
		}
		r := fn(0, lo, chunkEnd(lo, chunkSize, total))
		if lo == 0 {
			acc = r
		} else {
			acc = fold(acc, r)
		}
	}
	return acc, nil
}

// Scratch hands each worker slot of a ParallelChunks / MapChunks call its
// own lazily built scratch value, so chunked loops can reuse buffers without
// sharing them across goroutines. A slot is owned by exactly one goroutine
// for the duration of a chunked call (the worker index fn receives), which
// is the only synchronization Scratch relies on: Get must only be called
// with the worker index of the running chunk, and the values must never
// influence outputs — scratch is for allocation reuse only.
type Scratch[T any] struct {
	build func() T
	slots []T
	made  []bool
}

// NewScratch returns a pool of `slots` lazily built scratch values (at least
// one). build runs at most once per slot, on the first Get.
func NewScratch[T any](slots int, build func() T) *Scratch[T] {
	if slots < 1 {
		slots = 1
	}
	return &Scratch[T]{build: build, slots: make([]T, slots), made: make([]bool, slots)}
}

// Get returns worker's scratch value, building it on first use.
func (s *Scratch[T]) Get(worker int) T {
	if !s.made[worker] {
		s.slots[worker] = s.build()
		s.made[worker] = true
	}
	return s.slots[worker]
}

// Slots returns the number of worker slots in the pool.
func (s *Scratch[T]) Slots() int { return len(s.slots) }
