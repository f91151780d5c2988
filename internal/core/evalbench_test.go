package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Test and benchmark harnesses for the Step-4 evaluation kernel: the
// pre-kernel reference scans it is pinned against, and the two benchmarks
// cmd/bench records (BenchmarkEvaluateColumnar, BenchmarkEvaluateParallel).

// evaluateDimsReference is the pre-kernel per-element At column scan, kept
// verbatim as the bit-identity oracle for the columnar kernel and as the
// baseline leg of BenchmarkEvaluateColumnar. buf needs len >= len(members).
func evaluateDimsReference(ds *dataset.Dataset, members []int, thr *thresholds, buf []float64, out []dimEval) []dimEval {
	d := ds.D()
	out = out[:0]
	ni := len(members)
	if ni == 0 {
		for j := 0; j < d; j++ {
			out = append(out, dimEval{phi: math.Inf(-1)})
		}
		return out
	}
	for j := 0; j < d; j++ {
		var r stats.Running
		for t, i := range members {
			v := ds.At(i, j)
			buf[t] = v
			r.Add(v)
		}
		med := stats.MedianInPlace(buf[:ni])
		diff := r.Mean() - med
		disp := r.Variance() + diff*diff
		sHat := thr.value(j, ni)
		phi := float64(ni-1) * (1 - disp/sHat)
		out = append(out, dimEval{phi: phi, selected: disp < sHat})
	}
	return out
}

// phiCluster returns φ_i = Σ_{vj∈dims} φ_ij for a fixed dimension set. buf
// needs capacity for len(members) values and is consumed.
func phiCluster(ds *dataset.Dataset, members []int, dims []int, thr *thresholds, buf []float64) float64 {
	ni := len(members)
	if ni == 0 || len(dims) == 0 {
		return 0
	}
	total := 0.0
	for _, j := range dims {
		disp := dispersion(ds, members, j, buf)
		sHat := thr.value(j, ni)
		total += float64(ni-1) * (1 - disp/sHat)
	}
	return total
}

// EvalBench exposes the two implementations of the Step-4 dimension
// evaluation — the columnar gather kernel and the pre-kernel per-element At
// column scan — so BenchmarkEvaluateColumnar can chart the kernel against
// its baseline on flat and sharded storage. Both methods return Σ φ_ij over the selected dimensions, as a sink the
// compiler cannot elide. Not safe for concurrent use.
type EvalBench struct {
	ds      *dataset.Dataset
	thr     *thresholds
	scratch *evalScratch
	buf     []float64
	out     []dimEval
}

// NewEvalBench builds an evaluation benchmark harness over the dataset with
// the thresholds the given options imply.
func NewEvalBench(ds *dataset.Dataset, opts Options) (*EvalBench, error) {
	opts, err := opts.normalized(ds)
	if err != nil {
		return nil, err
	}
	return &EvalBench{
		ds:      ds,
		thr:     newThresholds(ds, opts),
		scratch: newEvalScratch(ds.D()),
		buf:     make([]float64, ds.N()),
		out:     make([]dimEval, 0, ds.D()),
	}, nil
}

// Columnar evaluates the members through the gather/transpose kernel.
func (b *EvalBench) Columnar(members []int) float64 {
	return sumSelected(evaluateDims(b.ds, members, b.thr, b.scratch))
}

// Reference evaluates the members through the pre-kernel At column scan.
func (b *EvalBench) Reference(members []int) float64 {
	b.out = evaluateDimsReference(b.ds, members, b.thr, b.buf, b.out)
	return sumSelected(b.out)
}

func sumSelected(evals []dimEval) float64 {
	phi := 0.0
	for _, e := range evals {
		if e.selected {
			phi += e.phi
		}
	}
	return phi
}

// ParallelEvalBench exposes the cluster-chunked Step-4 evaluation path — the
// engine.MapChunks map-reduce assigner.evaluate runs, one cluster per chunk
// with per-worker gather scratch and the φ fold in cluster-index order — so
// BenchmarkEvaluateParallel can chart its scaling across worker counts.
// Evaluate returns Σ_i φ_i, which is bit-identical for every worker count
// (the conformance suite's parallel-evaluation leg pins the same property
// end to end). Not safe for concurrent use.
type ParallelEvalBench struct {
	ds       *dataset.Dataset
	thr      *thresholds
	par      *assigner
	clusters []*state
}

// NewParallelEvalBench builds the harness over fixed cluster member lists
// (one per cluster, as Step 3 would produce them) with `workers` goroutines
// for the chunked evaluation.
func NewParallelEvalBench(ds *dataset.Dataset, opts Options, membersByCluster [][]int, workers int) (*ParallelEvalBench, error) {
	opts, err := opts.normalized(ds)
	if err != nil {
		return nil, err
	}
	k := len(membersByCluster)
	clusters := make([]*state, k)
	for i, members := range membersByCluster {
		clusters[i] = &state{members: members, prevSize: maxInt(2, len(members))}
	}
	return &ParallelEvalBench{
		ds:       ds,
		thr:      newThresholds(ds, opts),
		par:      newAssigner(ds.N(), ds.D(), k, workers, opts.ChunkSize),
		clusters: clusters,
	}, nil
}

// Evaluate runs one full Step-4 pass (SelectDim + φ_i on every cluster,
// chunked across the harness's workers) and returns Σ_i φ_i.
func (b *ParallelEvalBench) Evaluate() float64 {
	total, err := b.par.evaluate(context.Background(), b.ds, b.clusters, b.thr)
	if err != nil {
		// Background never cancels and the harness runs with the fault
		// registry disarmed, so an error here is a bug in the kernel.
		panic(err)
	}
	return total
}

// benchGroundTruth is the synthetic workload of the kernel benchmarks.
func benchGroundTruth(b *testing.B, n, d, k, l int) *synth.GroundTruth {
	b.Helper()
	gt, err := synth.Generate(synth.Config{N: n, D: d, K: k, AvgDims: l, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return gt
}

// BenchmarkEvaluateColumnar pits the columnar gather kernel against the
// pre-kernel per-element At column scan on one Step-4 cluster evaluation
// (SelectDim over all d dimensions of one cluster's members), on flat and
// shard-backed storage. The two legs return bit-identical φ (pinned by the
// kernel's oracle test); the benchmark charts the locality and
// dispatch-elimination win, which is largest on the sharded path where the
// At scan pays an integer division per element. Allocations are reported:
// the columnar leg must stay at 0 allocs/op after its scratch warms up.
func BenchmarkEvaluateColumnar(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 200, 5, 12)
	members := gt.MembersOfClass(0)
	sd, err := gt.Data.Shards(16)
	if err != nil {
		b.Fatal(err)
	}
	storages := []struct {
		name string
		ds   *dataset.Dataset
	}{{"flat", gt.Data}, {"shards=16", sd.Dataset()}}
	var sink float64
	for _, st := range storages {
		eb, err := NewEvalBench(st.ds, DefaultOptions(5))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(st.name+"/columnar", func(b *testing.B) {
			sink = eb.Columnar(members) // warm the gather/transpose scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = eb.Columnar(members)
			}
		})
		b.Run(st.name+"/atscan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = eb.Reference(members)
			}
		})
	}
	_ = sink
}

// BenchmarkEvaluateParallel measures the cluster-chunked Step-4 evaluation
// path — one full SelectDim + φ_i pass over all K clusters through
// engine.MapChunks, one cluster per chunk with per-worker gather scratch —
// at 1/2/4/8 workers. The returned Σφ is bit-identical across the
// sub-benchmarks (pinned by TestConformanceParallelEvaluation and the
// parallel-evaluation tests); only wall-clock time changes. Single-core
// caveat: with one core the curve is flat and the workers>1 legs only add
// scheduling overhead — run on multi-core hardware for the speedup numbers.
func BenchmarkEvaluateParallel(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 200, 8, 12)
	clusters := make([][]int, 8)
	for c := range clusters {
		clusters[c] = gt.MembersOfClass(c)
	}
	var sink float64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eb, err := NewParallelEvalBench(gt.Data, DefaultOptions(8), clusters, workers)
			if err != nil {
				b.Fatal(err)
			}
			sink = eb.Evaluate() // warm the per-worker gather/transpose scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = eb.Evaluate()
			}
		})
	}
	_ = sink
}
