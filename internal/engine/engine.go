// Package engine runs the randomized restarts every algorithm in this
// repository is built on (SSPC's medoid restarts, PROCLUS and DOC trials,
// CLARANS local searches, the experiment harness's best-of-N protocol)
// across a bounded worker pool.
//
// The engine is race-safe by construction: restart r always draws from its
// own RNG seeded with ChildSeed(seed, r), results are collected into a slice
// indexed by restart, and reductions happen after all restarts finish. A run
// with Workers = N is therefore byte-identical to a run with Workers = 1 —
// parallelism changes wall-clock time, never output.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/stats"
)

// DefaultWorkers resolves a Workers option: values <= 0 mean "one worker per
// available CPU" (runtime.GOMAXPROCS(0)).
func DefaultWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// splitmix64 constants (Steele, Lea, Flood — "Fast splittable pseudorandom
// number generators", OOPSLA 2014). The gamma is the golden ratio in 64-bit
// fixed point; the two multipliers are the finalization mix.
const (
	splitmixGamma = 0x9E3779B97F4A7C15
	splitmixMixA  = 0xBF58476D1CE4E5B9
	splitmixMixB  = 0x94D049BB133111EB
)

// ChildSeed derives the deterministic seed of restart r from a base seed
// using a splitmix64-style finalizer, so sibling restarts get decorrelated
// streams without sharing any RNG state. Restart 0 reuses the base seed
// unchanged: a single-restart run is byte-identical to the historical serial
// path that seeded its RNG with Options.Seed directly.
func ChildSeed(base int64, restart int) int64 {
	if restart == 0 {
		return base
	}
	z := uint64(base) + uint64(restart)*splitmixGamma
	z ^= z >> 30
	z *= splitmixMixA
	z ^= z >> 27
	z *= splitmixMixB
	z ^= z >> 31
	return int64(z)
}

// Cause reports why ctx ended: context.Cause(ctx) once ctx is done, nil
// while it is live. It is the cancellation check every cooperative loop in
// this repository uses — a nil-safe, allocation-free probe whose non-nil
// return is always the error the caller should propagate verbatim
// (context.Canceled, context.DeadlineExceeded, or a custom cancel cause).
func Cause(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return context.Cause(ctx)
}

// PanicError is the typed failure a panic is contained into. The engine
// recovers a panic wherever it runs one of the caller's functions — a
// restart of Run, or a chunk of ParallelChunks / MapChunks on whichever
// goroutine ran it — records the value and stack, and fails the call with
// this error instead of crashing the process. A restart failure is wrapped
// with its restart index, so the message still names the restart. Unwrap
// exposes the panic value when it is itself an error, so errors.Is /
// errors.As see through the containment (an injected faults.ModePanic still
// matches faults.ErrInjected).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic: %v", e.Value)
}

// Unwrap returns the panic value if it was an error, nil otherwise.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// containPanic turns a recovered panic value into a *PanicError; it is
// deferred as `defer containPanic(&err)` by every engine function that runs
// caller code.
func containPanic(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// safeCall invokes one restart with panic containment and the restart-launch
// fault gate inside the recover scope (so an injected launch panic is
// contained exactly like a panic from fn itself).
func safeCall[R any](r int, rng *stats.RNG, fn func(restart int, rng *stats.RNG) (R, error)) (res R, err error) {
	defer containPanic(&err)
	if gateErr := faults.Check(faults.SiteRestartLaunch); gateErr != nil {
		var zero R
		return zero, gateErr
	}
	return fn(r, rng)
}

// restartErr wraps a restart failure with its index — unless the failure is
// the caller's own cancellation bubbling back up (a cooperative loop inside
// fn observed ctx and returned its cause), in which case the bare cause is
// returned so callers always see context.Canceled / context.DeadlineExceeded
// for a canceled run, never a restart-wrapped partial-failure message.
func restartErr(ctx context.Context, r int, err error) error {
	if c := Cause(ctx); c != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return c
	}
	return fmt.Errorf("engine: restart %d: %w", r, err)
}

// Run executes fn for restarts 0..n-1 across at most `workers` goroutines
// (<= 0 means GOMAXPROCS) and returns the per-restart results in restart
// order. Each invocation receives a fresh RNG seeded with
// ChildSeed(seed, restart), so the result slice does not depend on the
// worker count or on scheduling.
//
// The first failing restart cancels the remaining ones; the error reported
// is the recorded failure with the lowest restart index, wrapped with that
// index. A canceled ctx stops the run and returns context.Cause(ctx). A
// panicking restart is contained into a typed *PanicError instead of
// crashing the process.
func Run[R any](ctx context.Context, n, workers int, seed int64, fn func(restart int, rng *stats.RNG) (R, error)) ([]R, error) {
	if fn == nil {
		return nil, errors.New("engine: nil restart function")
	}
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = DefaultWorkers(workers)
	if workers > n {
		workers = n
	}
	results := make([]R, n)

	if workers == 1 {
		for r := 0; r < n; r++ {
			if err := Cause(ctx); err != nil {
				return nil, err
			}
			res, err := safeCall(r, stats.NewRNG(ChildSeed(seed, r)), fn)
			if err != nil {
				return nil, restartErr(ctx, r, err)
			}
			results[r] = res
		}
		return results, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var skipped atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= n {
					return
				}
				if runCtx.Err() != nil {
					skipped.Store(true)
					return
				}
				res, err := safeCall(r, stats.NewRNG(ChildSeed(seed, r)), fn)
				if err != nil {
					errs[r] = err
					cancel()
					return
				}
				results[r] = res
			}
		}()
	}
	wg.Wait()

	for r, err := range errs {
		if err != nil {
			return nil, restartErr(ctx, r, err)
		}
	}
	if skipped.Load() {
		// No restart failed but some never ran: the parent ctx was canceled.
		return nil, Cause(ctx)
	}
	return results, nil
}

// stream executes fn for restarts 0..n-1 like Run, but launches restarts
// lazily and stops early once the incumbent best result has not improved for
// `plateau` consecutive restarts. It returns the prefix of per-restart
// results that was actually consumed (always at least min(plateau+1, n)
// long on success).
//
// The early-stop decision is taken in restart-index order: after consuming
// restart r, the stream ends iff none of restarts bestIdx+1..r improved on
// the incumbent best at bestIdx and r-bestIdx >= plateau. Workers may
// compute restarts beyond the stop point speculatively; those results are
// discarded, never reduced. The consumed prefix is therefore a pure
// function of (n, seed, plateau, fn) — byte-identical for every worker
// count — and `better` must be a pure function of its arguments.
//
// plateau <= 0 disables early stopping: stream degenerates to Run exactly
// (all n restarts, identical results slice). Errors follow Run's contract:
// the recorded failure with the lowest restart index wins, wrapped with that
// index, except that failures beyond the stop point are discarded with the
// results.
func stream[R any](ctx context.Context, n, workers int, seed int64, plateau int,
	better func(a, b R) bool, fn func(restart int, rng *stats.RNG) (R, error)) ([]R, error) {
	if plateau <= 0 {
		return Run(ctx, n, workers, seed, fn)
	}
	if fn == nil {
		return nil, errors.New("engine: nil restart function")
	}
	if better == nil {
		return nil, errors.New("engine: nil better predicate")
	}
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = DefaultWorkers(workers)
	if workers > n {
		workers = n
	}

	if workers == 1 {
		var results []R
		bestIdx := 0
		for r := 0; r < n; r++ {
			if err := Cause(ctx); err != nil {
				return nil, err
			}
			res, err := safeCall(r, stats.NewRNG(ChildSeed(seed, r)), fn)
			if err != nil {
				return nil, restartErr(ctx, r, err)
			}
			results = append(results, res)
			if r > 0 && better(res, results[bestIdx]) {
				bestIdx = r
			}
			if r-bestIdx >= plateau {
				break
			}
		}
		return results, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]R, n)
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	for r := range done {
		done[r] = make(chan struct{})
	}

	// Producers take one launch token per restart; the consumer issues one
	// more per consumed slot. That caps the speculative overhang at
	// workers+plateau restarts beyond the stop point, so cheap restart
	// functions cannot race through the whole schedule before the stream
	// decides to stop — restarts genuinely launch lazily.
	lookahead := workers + plateau
	if lookahead > n {
		lookahead = n
	}
	tokens := make(chan struct{}, lookahead+n)
	for i := 0; i < lookahead; i++ {
		tokens <- struct{}{}
	}
	stopCh := make(chan struct{})

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopCh:
					return
				case <-runCtx.Done():
					return
				case <-tokens:
				}
				r := int(next.Add(1)) - 1
				if r >= n {
					return
				}
				res, err := safeCall(r, stats.NewRNG(ChildSeed(seed, r)), fn)
				if err != nil {
					errs[r] = err
				} else {
					results[r] = res
				}
				close(done[r])
			}
		}()
	}

	// Consume slots in restart-index order so the stop decision (and the
	// returned prefix) cannot depend on completion order.
	consumed := 0
	bestIdx := 0
	var firstErr error
	for r := 0; r < n; r++ {
		select {
		case <-done[r]:
		case <-ctx.Done():
			close(stopCh)
			cancel()
			wg.Wait()
			return nil, Cause(ctx)
		}
		if errs[r] != nil {
			firstErr = restartErr(ctx, r, errs[r])
			break
		}
		consumed = r + 1
		tokens <- struct{}{}
		if r > 0 && better(results[r], results[bestIdx]) {
			bestIdx = r
		}
		if r-bestIdx >= plateau {
			break
		}
	}
	close(stopCh)
	cancel()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results[:consumed:consumed], nil
}

// best returns the index of the best element under the strict `better`
// predicate. Ties keep the lowest index, so the selection is deterministic
// and independent of how the results were produced. It returns -1 for an
// empty slice.
func best[R any](results []R, better func(a, b R) bool) int {
	if len(results) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(results); i++ {
		if better(results[i], results[best]) {
			best = i
		}
	}
	return best
}
