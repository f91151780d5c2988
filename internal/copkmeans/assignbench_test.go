package copkmeans

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/synth"
)

// AssignBench exposes one chunked constrained-assignment pass (the distance
// pass plus the serial feasibility placement) for
// BenchmarkConstrainedAssignChunked.
type AssignBench struct {
	ds      *dataset.Dataset
	pre     *prep
	opts    Options
	centers [][]float64
	dists   []float64
	comp    []int
	workers int
}

// NewAssignBench prepares a benchmark harness over ds with the given
// constraints: centers are the deterministic seed-0 sample, so every call
// measures the same work.
func NewAssignBench(ds *dataset.Dataset, cons *Constraints, k, workers, chunkSize int) (*AssignBench, error) {
	if ds == nil {
		return nil, errors.New("copkmeans: nil dataset")
	}
	if cons == nil {
		cons = &Constraints{}
	}
	pre, err := prepare(ds.N(), cons)
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions(k)
	opts.Budget = engine.Budget{ChunkSize: chunkSize}.Normalized(engine.Budget{})
	rng := stats.NewRNG(0)
	centers := make([][]float64, k)
	for c, idx := range rng.Sample(ds.N(), k) {
		centers[c] = append([]float64(nil), ds.Row(idx)...)
	}
	return &AssignBench{
		ds: ds, pre: pre, opts: opts, centers: centers,
		dists:   make([]float64, len(pre.roots)*k),
		comp:    make([]int, len(pre.roots)),
		workers: engine.DefaultWorkers(workers),
	}, nil
}

// Assign runs one constrained assignment pass and returns its cost.
func (b *AssignBench) Assign() (float64, error) {
	nc := len(b.pre.roots)
	k := b.opts.K
	err := engine.ParallelChunks(context.Background(), nc, b.opts.ChunkSize, b.workers, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			members := b.pre.members[t]
			for c := 0; c < k; c++ {
				total := 0.0
				for _, i := range members {
					total += distSq(b.ds.Row(i), b.centers[c])
				}
				b.dists[t*k+c] = total
			}
		}
	})
	if err != nil {
		return 0, err
	}
	for t := range b.comp {
		b.comp[t] = -1
	}
	cost := 0.0
	cands := make([]struct {
		c    int
		dist float64
	}, k)
	for t := 0; t < nc; t++ {
		for c := 0; c < k; c++ {
			cands[c].c, cands[c].dist = c, b.dists[t*k+c]
		}
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].dist < cands[j-1].dist; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		placed := false
		for _, cd := range cands {
			if feasible(t, cd.c, b.pre, b.comp) {
				b.comp[t] = cd.c
				cost += cd.dist
				placed = true
				break
			}
		}
		if !placed {
			return 0, fmt.Errorf("%w: component %d has no feasible cluster", ErrInfeasible, b.pre.roots[t])
		}
	}
	return cost, nil
}

// BenchmarkConstrainedAssignChunked measures one chunked COP-KMeans
// constrained-assignment pass (the (component × center) distance scan plus
// the serial feasibility placement) at 1/2/4/8 workers, plus the
// chunk-granularity sweep at 8 workers. The pass output is byte-identical
// across every sub-benchmark (the conformance suite pins the full Run);
// only wall-clock time changes.
func BenchmarkConstrainedAssignChunked(b *testing.B) {
	gt, err := synth.Generate(synth.Config{N: 2000, D: 50, K: 4, AvgDims: 20, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{Kind: synth.ObjectsOnly, Coverage: 1, Size: 5, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	cons := FromKnowledge(kn)
	run := func(b *testing.B, workers, chunkSize int) {
		bench, err := NewAssignBench(gt.Data, cons, 4, workers, chunkSize)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bench.Assign(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { run(b, workers, 0) })
	}
	for _, chunkSize := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("workers=8/chunk=%d", chunkSize), func(b *testing.B) { run(b, 8, chunkSize) })
	}
}
