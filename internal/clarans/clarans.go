// Package clarans implements CLARANS (Ng & Han — VLDB 1994), the
// non-projected k-medoids algorithm the SSPC paper uses as the full-space
// reference in its evaluation. CLARANS searches the graph of medoid sets by
// repeatedly trying random single-medoid swaps, restarting from a fresh
// random medoid set numlocal times.
package clarans

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Options configures a CLARANS run.
type Options struct {
	// K is the number of clusters.
	K int
	// MaxNeighbor is the number of consecutive non-improving random swaps
	// that declare a local optimum; zero takes the paper's default of
	// max(250, 0.0125·K·(N−K)).
	MaxNeighbor int
	Seed        int64

	// Budget sets the local searches (Restarts — the paper's numlocal,
	// default 2), the worker budget that runs them concurrently and then
	// parallelizes the final assignment scan, and that scan's chunk size
	// (see engine.Budget). The swap-cost loop inside a local search stays
	// serial: its running sum is order-sensitive floating point.
	engine.Budget
}

// DefaultOptions returns the paper's recommended parameters.
func DefaultOptions(k int) Options { return Options{K: k} }

// localOptimum is the outcome of one randomized local search.
type localOptimum struct {
	medoids    []int
	cost       float64
	iterations int
}

// Run executes CLARANS with full-dimensional Euclidean distance. The
// Restarts local searches (the paper's numlocal) run concurrently on up to
// Workers goroutines through the restart engine; the lowest-cost local
// optimum wins, with ties going to the lowest restart index, so the result
// is a pure function of (ds, opts) regardless of the worker count.
func Run(ds *dataset.Dataset, opts Options) (*cluster.Result, error) {
	return RunContext(context.Background(), ds, opts)
}

// RunContext is Run under a context: cancellation is checked at every local
// search launch, every swap trial inside a search, and every chunk boundary
// of the final assignment scan, so a canceled run returns context.Cause(ctx)
// — never a partial result. A run that completes is byte-identical to Run.
func RunContext(ctx context.Context, ds *dataset.Dataset, opts Options) (*cluster.Result, error) {
	if ds == nil {
		return nil, errors.New("clarans: nil dataset")
	}
	n := ds.N()
	if opts.K <= 0 || opts.K > n {
		return nil, fmt.Errorf("clarans: K = %d out of range", opts.K)
	}
	opts.Budget = opts.Budget.Normalized(engine.Budget{Restarts: 2})
	if opts.MaxNeighbor <= 0 {
		opts.MaxNeighbor = int(0.0125 * float64(opts.K) * float64(n-opts.K))
		if opts.MaxNeighbor < 250 {
			opts.MaxNeighbor = 250
		}
	}

	best, locals, err := engine.Fit(ctx, opts.Budget, opts.Seed, 0,
		func(a, b localOptimum) bool { return a.cost < b.cost },
		func(_ int, rng *stats.RNG, _ int) (localOptimum, error) {
			return localSearch(ctx, ds, opts, rng)
		})
	if err != nil {
		return nil, err
	}
	iterations := 0
	for _, l := range locals {
		iterations += l.iterations
	}

	// Final assignment: per-point nearest medoid, chunked over fixed point
	// ranges with disjoint writes — the whole worker budget is free again
	// once the local searches have finished. On a shard-backed dataset,
	// chunk = shard: each worker's assignment scan stays inside one shard's
	// backing memory. Output is unchanged either way.
	chunkSize := engine.AlignChunk(opts.ChunkSize, ds.ShardRows())
	assign := make([]int, n)
	if err := engine.ParallelChunks(ctx, n, chunkSize, engine.DefaultWorkers(opts.Workers), func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			bestDist := math.Inf(1)
			for i, m := range best.medoids {
				if d := ds.EuclideanSq(p, m, nil); d < bestDist {
					bestDist = d
					assign[p] = i
				}
			}
		}
	}); err != nil {
		return nil, err
	}
	res := &cluster.Result{
		K:                   opts.K,
		Assignments:         assign,
		Score:               best.cost,
		ScoreHigherIsBetter: false,
		Iterations:          iterations,
	}
	if err := res.Validate(n, ds.D()); err != nil {
		return nil, fmt.Errorf("clarans: internal result invalid: %w", err)
	}
	return res, nil
}

// localSearch runs one local search: from a random medoid set, try random
// single-medoid swaps until MaxNeighbor consecutive swaps fail to improve
// the cost.
func localSearch(ctx context.Context, ds *dataset.Dataset, opts Options, rng *stats.RNG) (localOptimum, error) {
	n := ds.N()
	medoids := rng.Sample(n, opts.K)
	cost := totalCost(ds, medoids)
	tries := 0
	iterations := 0
	for tries < opts.MaxNeighbor {
		if err := engine.Cause(ctx); err != nil {
			return localOptimum{}, err
		}
		iterations++
		// Random neighbor: replace one random medoid with one random
		// non-medoid.
		mi := rng.Intn(opts.K)
		candidate := rng.Intn(n)
		if containsInt(medoids, candidate) {
			continue
		}
		old := medoids[mi]
		medoids[mi] = candidate
		newCost := totalCost(ds, medoids)
		if newCost < cost {
			cost = newCost
			tries = 0
		} else {
			medoids[mi] = old
			tries++
		}
	}
	return localOptimum{medoids: medoids, cost: cost, iterations: iterations}, nil
}

// totalCost is the sum over objects of the distance to the nearest medoid.
func totalCost(ds *dataset.Dataset, medoids []int) float64 {
	total := 0.0
	for p := 0; p < ds.N(); p++ {
		best := math.Inf(1)
		for _, m := range medoids {
			if d := ds.EuclideanSq(p, m, nil); d < best {
				best = d
			}
		}
		total += math.Sqrt(best)
	}
	return total
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
