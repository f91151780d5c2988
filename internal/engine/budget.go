package engine

import (
	"context"

	"repro/internal/stats"
)

// defaultChunkSize is the chunk size an unset Budget.ChunkSize resolves to
// unless the algorithm names its own default.
const defaultChunkSize = 512

// Budget is the worker budget of one fit. Every algorithm's Options embeds
// it, so the three knobs are spelled, documented and defaulted in one place.
// No field ever changes a result: restart r always draws from
// ChildSeed(seed, r), and chunk boundaries depend on ChunkSize alone, so
// Workers and ChunkSize tune wall-clock time only.
type Budget struct {
	// Restarts is the number of independent randomized restarts; the best
	// result by the algorithm's objective wins, ties going to the lowest
	// restart index. <= 0 means the algorithm's default: 1 everywhere
	// except CLARANS, whose default of 2 local searches is the paper's
	// numlocal.
	Restarts int

	// Workers bounds the total number of goroutines. Restarts run
	// concurrently on up to min(Workers, Restarts) of them, and the budget
	// left over parallelizes the chunked loops inside each restart (see
	// Fit). <= 0 means runtime.GOMAXPROCS(0).
	Workers int

	// ChunkSize is the number of elements per unit of work in the chunked
	// loops inside a restart — objects for most algorithms, active nodes
	// for HARP, must-link components for COP-KMeans. <= 0 means the
	// algorithm's default: 512 everywhere except HARP, whose per-node scan
	// is far heavier than a per-point one and defaults to 32. Row-range
	// loops over a shard-backed dataset align their chunks to the shard
	// size (AlignChunk).
	ChunkSize int
}

// Normalized returns b with its unset fields resolved: Restarts <= 0 takes
// def.Restarts and ChunkSize <= 0 takes def.ChunkSize, where def carries an
// algorithm's own defaults and its unset fields mean 1 restart and 512
// elements per chunk. Workers is returned as given; <= 0 is resolved to
// GOMAXPROCS where the budget is spent.
func (b Budget) Normalized(def Budget) Budget {
	if def.Restarts <= 0 {
		def.Restarts = 1
	}
	if def.ChunkSize <= 0 {
		def.ChunkSize = defaultChunkSize
	}
	if b.Restarts <= 0 {
		b.Restarts = def.Restarts
	}
	if b.ChunkSize <= 0 {
		b.ChunkSize = def.ChunkSize
	}
	return b
}

// splitBudget splits the total worker budget between concurrent restarts and
// the chunked loops inside each restart: with W workers and R restarts,
// min(W, R) restarts run concurrently and each gets ceil(W / min(W, R))
// goroutines for its inner loops — rounding up so no part of the budget is
// stranded when W is not a multiple of R, at the cost of mild peak
// oversubscription that also keeps cores busy as the restart stream drains.
// The split is a scheduling heuristic only — any value produces
// byte-identical results.
func splitBudget(workers, restarts int) int {
	w := DefaultWorkers(workers)
	concurrent := restarts
	if concurrent > w {
		concurrent = w
	}
	if concurrent < 1 {
		concurrent = 1
	}
	return (w + concurrent - 1) / concurrent
}

// Fit is the restart driver every algorithm runs through. It normalizes b,
// runs b.Restarts restarts of fn on up to b.Workers goroutines, and returns
// the best result under the strict `better` predicate (ties keep the lowest
// restart) together with every result it consumed, in restart order.
//
// Restart r receives an RNG seeded with ChildSeed(seed, r) and `intra`, its
// share of the worker budget for the chunked loops inside it (see
// splitBudget). earlyStop > 0 streams the restarts and stops once the best
// result has not improved for that many consecutive restarts, judged in
// restart order, so the consumed prefix — and the winner — is identical for
// every Workers value; earlyStop <= 0 runs all restarts. Failures follow
// Run: the failing restart with the lowest index wins, a canceled ctx
// returns its cause, and a panic is contained into a *PanicError.
func Fit[R any](ctx context.Context, b Budget, seed int64, earlyStop int, better func(a, b R) bool,
	fn func(restart int, rng *stats.RNG, intra int) (R, error)) (R, []R, error) {
	var zero R
	b = b.Normalized(Budget{})
	intra := splitBudget(b.Workers, b.Restarts)
	all, err := stream(ctx, b.Restarts, b.Workers, seed, earlyStop, better,
		func(restart int, rng *stats.RNG) (R, error) {
			return fn(restart, rng, intra)
		})
	if err != nil {
		return zero, nil, err
	}
	return all[best(all, better)], all, nil
}
