// Package harp implements HARP (Yip, Cheung, Ng — TKDE 2004), the
// hierarchical projected clustering baseline of the SSPC paper. HARP merges
// clusters agglomeratively under two dynamically loosened thresholds: a
// cluster may only absorb another if the merged cluster has at least dmin
// selected dimensions, where a dimension is selected when its relevance
// index R_ij = 1 − s²_ij/s²_j reaches Rmin. The thresholds start harsh
// (dmin = d, Rmin high) and are loosened step by step, so early merges are
// the ones most likely to join members of the same real cluster.
//
// This is a reimplementation from the published descriptions (the authors'
// code is not available); see DESIGN.md for the substitution note.
package harp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Options configures a HARP run.
type Options struct {
	// K is the target number of clusters (merging stops there at the
	// latest).
	K int
	// Levels is the number of threshold-loosening steps (default 15).
	Levels int
	// RMax is the starting relevance threshold (default 0.9); the baseline
	// at the final level is 0.
	RMax float64
	// ReportR is the relevance at which a dimension is reported as
	// selected for the final clusters (default 0.5).
	ReportR float64

	// HARP's merge procedure is deterministic; its only free choice is the
	// order in which clusters are scanned, which breaks ties between
	// equally good merges and decides which mutual pairs merge when a batch
	// would overshoot K. Seed randomizes that scan order and Restarts runs
	// several such randomized orders, keeping the highest-scoring
	// clustering. Seed = 0 with Restarts <= 1 is the canonical published
	// order.
	Seed int64

	// Budget sets the scan-order restarts, the worker budget and the chunk
	// size of the merge-proposal scan, which chunks active nodes: each
	// node's scan is O(active·d), far heavier than a per-point scan, so
	// ChunkSize defaults to 32 (see engine.Budget).
	engine.Budget
}

// DefaultOptions returns a configuration matching the published defaults.
func DefaultOptions(k int) Options {
	return Options{K: k, Levels: 15, RMax: 0.9, ReportR: 0.5}
}

// node is a cluster in the merge forest with per-dimension Welford
// accumulators, so merged variances are computed in O(d) without touching
// members.
type node struct {
	members []int
	stats   []stats.Running
	active  bool
}

// Run executes HARP. It is O(n²·d) in the worst case; the evaluation uses
// it at the paper's scale (n = 1000, d = 100). Restarts with randomized
// scan orders run concurrently through the restart engine; see Options.
func Run(ds *dataset.Dataset, opts Options) (*cluster.Result, error) {
	return RunContext(context.Background(), ds, opts)
}

// RunContext is Run under a context: cancellation is checked at every restart
// launch and every merge round (the unit the iteration counter ticks on), so
// a canceled run returns context.Cause(ctx) — never a partial result. A run
// that completes is byte-identical to Run.
func RunContext(ctx context.Context, ds *dataset.Dataset, opts Options) (*cluster.Result, error) {
	if ds == nil {
		return nil, errors.New("harp: nil dataset")
	}
	n := ds.N()
	if opts.K <= 0 || opts.K > n {
		return nil, fmt.Errorf("harp: K = %d out of range", opts.K)
	}
	if opts.Levels <= 1 {
		opts.Levels = 15
	}
	if opts.RMax <= 0 || opts.RMax > 1 {
		opts.RMax = 0.9
	}
	if opts.ReportR <= 0 || opts.ReportR >= 1 {
		opts.ReportR = 0.5
	}
	// ChunkSize deliberately stays un-aligned to dataset shards
	// (engine.AlignChunk): HARP chunks *active nodes*, not rows — every
	// node's scan reads member rows across all shards regardless of chunk
	// boundaries, so alignment would buy no locality while inflating node
	// chunks past the proposeMerges parallel threshold.
	opts.Budget = opts.Budget.Normalized(engine.Budget{ChunkSize: 32})
	_, all, err := engine.Fit(ctx, opts.Budget, opts.Seed, 0, cluster.BetterResult,
		func(restart int, rng *stats.RNG, intra int) (*cluster.Result, error) {
			var order []int
			if opts.Seed != 0 || restart > 0 {
				order = rng.Perm(n)
			}
			return runOnce(ctx, ds, opts, order, intra)
		})
	if err != nil {
		return nil, err
	}
	return cluster.BestResult(all), nil
}

// runOnce executes one agglomerative merge pass. order permutes the initial
// cluster scan order (nil = canonical object order); members always carry
// original object ids, so only tie-breaking and batch cutoffs depend on it.
// The merge-proposal scans run on up to intra goroutines.
func runOnce(ctx context.Context, ds *dataset.Dataset, opts Options, order []int, intra int) (*cluster.Result, error) {
	n, d := ds.N(), ds.D()

	globalVar := make([]float64, d)
	for j := 0; j < d; j++ {
		globalVar[j] = ds.ColVariance(j)
		if globalVar[j] == 0 {
			globalVar[j] = 1
		}
	}

	nodes := make([]*node, n)
	for i := 0; i < n; i++ {
		obj := i
		if order != nil {
			obj = order[i]
		}
		st := make([]stats.Running, d)
		row := ds.Row(obj)
		for j := 0; j < d; j++ {
			st[j].Add(row[j])
		}
		nodes[i] = &node{members: []int{obj}, stats: st, active: true}
	}
	activeCount := n

	// evalMerge returns (selectedDims, totalRelevance) of the would-be
	// merged cluster at relevance threshold rmin.
	evalMerge := func(a, b *node, rmin float64) (int, float64) {
		count := 0
		total := 0.0
		for j := 0; j < d; j++ {
			merged := a.stats[j]
			merged.Merge(b.stats[j])
			r := 1 - merged.Variance()/globalVar[j]
			if r >= rmin {
				count++
				total += r
			}
		}
		return count, total
	}

	iterations := 0
	for level := 0; level < opts.Levels && activeCount > opts.K; level++ {
		// The dimension-count threshold loosens quickly (quadratically)
		// while the relevance threshold loosens slowly (square root): early
		// levels then admit only merges that are very similar on a shrinking
		// number of dimensions, which is where the discriminating power of
		// small clusters lives.
		frac := float64(level) / float64(opts.Levels-1)
		rmin := opts.RMax * math.Sqrt(1-frac)
		dmin := int(math.Round(float64(d) * (1 - frac) * (1 - frac)))
		if dmin < 1 {
			dmin = 1
		}

		// Merge at this threshold level until no allowed merge remains:
		// each round, every active cluster proposes its best partner and
		// mutual proposals are merged in batch (deterministically, in
		// slice order).
		for activeCount > opts.K {
			if err := engine.Cause(ctx); err != nil {
				return nil, err
			}
			iterations++
			act := activeNodes(nodes)
			bestPartner, err := proposeMerges(ctx, act, evalMerge, rmin, dmin, intra, opts.ChunkSize)
			if err != nil {
				return nil, err
			}
			merged := 0
			for i, a := range act {
				bj := bestPartner[i]
				if bj < 0 || bj <= i { // handle each mutual pair once
					continue
				}
				if bestPartner[bj] != i {
					continue
				}
				b := act[bj]
				if !a.active || !b.active {
					continue
				}
				a.members = append(a.members, b.members...)
				for j := 0; j < d; j++ {
					a.stats[j].Merge(b.stats[j])
				}
				b.active = false
				activeCount--
				merged++
				if activeCount <= opts.K {
					break
				}
			}
			if merged == 0 {
				break
			}
		}
	}

	// If thresholds bottomed out before reaching K clusters, force-merge
	// the best remaining pairs (baseline behaviour: Rmin = 0 admits all).
	for activeCount > opts.K {
		if err := engine.Cause(ctx); err != nil {
			return nil, err
		}
		act := activeNodes(nodes)
		bestScore := math.Inf(-1)
		var ba, bb *node
		for i := 0; i < len(act); i++ {
			for j := i + 1; j < len(act); j++ {
				_, score := evalMerge(act[i], act[j], 0)
				if score > bestScore {
					bestScore = score
					ba, bb = act[i], act[j]
				}
			}
		}
		if ba == nil {
			break
		}
		ba.members = append(ba.members, bb.members...)
		for j := 0; j < d; j++ {
			ba.stats[j].Merge(bb.stats[j])
		}
		bb.active = false
		activeCount--
	}

	// Emit the K largest clusters; smaller leftovers become outliers.
	act := activeNodes(nodes)
	sort.Slice(act, func(i, j int) bool { return len(act[i].members) > len(act[j].members) })
	if len(act) > opts.K {
		act = act[:opts.K]
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Outlier
	}
	dims := make([][]int, opts.K)
	score := 0.0
	for c, nd := range act {
		for _, m := range nd.members {
			assign[m] = c
		}
		for j := 0; j < d; j++ {
			r := 1 - nd.stats[j].Variance()/globalVar[j]
			if r >= opts.ReportR {
				dims[c] = append(dims[c], j)
				score += r
			}
		}
	}
	res := &cluster.Result{
		K:                   opts.K,
		Assignments:         assign,
		Dims:                dims,
		Score:               score,
		ScoreHigherIsBetter: true,
		Iterations:          iterations,
	}
	if err := res.Validate(n, d); err != nil {
		return nil, fmt.Errorf("harp: internal result invalid: %w", err)
	}
	return res, nil
}

// proposeMerges runs one merge-proposal round: every active node scans the
// others for its best allowed partner (highest total relevance at thresholds
// rmin/dmin, ties keeping the earliest partner). The scan runs chunked over
// fixed node ranges on up to `workers` goroutines; each node writes only its
// own bestPartner/bestScore slots.
//
// The parallel per-node scan is byte-identical to the historical serial
// half-matrix loop (for i, for j > i, updating both ends of the pair): that
// loop shows node i the pairs (0,i), (1,i), …, (i−1,i) — in ascending outer
// index — before (i,i+1), …, (i,len−1), so node i encounters its candidate
// partners in ascending index order there too, with the same strict-improve
// tie-break. Evaluating each pair in (lower, higher) argument order keeps
// the merged-variance floating point of evalMerge identical as well.
func proposeMerges(ctx context.Context, act []*node, evalMerge func(a, b *node, rmin float64) (int, float64),
	rmin float64, dmin, workers, chunkSize int) ([]int, error) {
	bestPartner := make([]int, len(act))
	bestScore := make([]float64, len(act))
	for i := range bestPartner {
		bestPartner[i] = -1
		bestScore[i] = math.Inf(-1)
	}
	if chunkSize <= 0 {
		chunkSize = len(act)
	}
	if chunks := (len(act) + chunkSize - 1) / chunkSize; workers <= 2 || chunks <= 2 {
		// The half-matrix loop evaluates each pair once; the per-node scan
		// below evaluates each pair twice, so its breakeven is more than two
		// *effective* workers — at two, 2x work over 2 goroutines is at best
		// parity, and ParallelChunks caps effective parallelism at the chunk
		// count, which shrinks as merging drains the active set.
		for i := 0; i < len(act); i++ {
			for j := i + 1; j < len(act); j++ {
				cnt, score := evalMerge(act[i], act[j], rmin)
				if cnt < dmin {
					continue
				}
				if score > bestScore[i] {
					bestScore[i] = score
					bestPartner[i] = j
				}
				if score > bestScore[j] {
					bestScore[j] = score
					bestPartner[j] = i
				}
			}
		}
		return bestPartner, nil
	}
	err := engine.ParallelChunks(ctx, len(act), chunkSize, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < len(act); j++ {
				if j == i {
					continue
				}
				a, b := act[i], act[j]
				if j < i {
					a, b = b, a
				}
				cnt, score := evalMerge(a, b, rmin)
				if cnt < dmin {
					continue
				}
				if score > bestScore[i] {
					bestScore[i] = score
					bestPartner[i] = j
				}
			}
		}
	})
	return bestPartner, err
}

func activeNodes(nodes []*node) []*node {
	var out []*node
	for _, nd := range nodes {
		if nd.active {
			out = append(out, nd)
		}
	}
	return out
}
