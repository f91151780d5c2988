// Package sspc is a Go implementation of SSPC — Semi-Supervised Projected
// Clustering (Yip, Cheung, Ng — ICDE 2005) — together with the baseline
// algorithms its evaluation compares against (PROCLUS, HARP, CLARANS, DOC /
// FastDOC), a synthetic data generator following the paper's data model,
// and the evaluation metrics it reports.
//
// SSPC discovers projected clusters whose relevant dimensions can be as few
// as 1–5% of the total dimensionality, optionally guided by two kinds of
// domain knowledge: labeled objects ("these samples belong to class X") and
// labeled dimensions ("this gene is relevant to class X").
//
// Quick start:
//
//	gt, _ := sspc.Generate(sspc.SynthConfig{N: 500, D: 100, K: 4, AvgDims: 8})
//	res, _ := sspc.Cluster(gt.Data, sspc.DefaultOptions(4))
//	ari, _ := sspc.ARI(gt.Labels, res.Assignments)
//
// # Parallelism and determinism
//
// Every randomized algorithm here (SSPC, PROCLUS, CLARANS, DOC, and HARP's
// randomized scan orders) runs its independent restarts through a shared
// worker-pool engine, and every Options struct embeds the same worker
// budget (engine.Budget), documented and defaulted in one place:
//
//   - Restarts: the number of independent randomized runs; the best result
//     by the algorithm's own objective is returned. <= 0 means 1, except
//     for CLARANS, where it means the paper's numlocal default of 2 local
//     searches.
//   - Workers: the total goroutine budget; <= 0 means
//     runtime.GOMAXPROCS(0). Up to min(Workers, Restarts) restarts run
//     concurrently, and the budget left over is spent inside each restart
//     on the algorithm's hot loops — SSPC's O(n·K·|V|) assignment and
//     dimension re-selection, PROCLUS's assignment / dimension-refinement /
//     outlier passes, DOC's box-membership scans, HARP's per-node
//     merge-proposal scans, CLARANS's final assignment — chunked over
//     fixed ranges.
//   - ChunkSize: the elements per chunk of those loops (<= 0 means 512;
//     HARP, whose chunks are active nodes, 32). Any value gives identical
//     output.
//
// The restart-based searches can also stream their restarts adaptively:
// Options.EarlyStop > 0 (SSPC, PROCLUS, DOC, COP-KMeans, Seed-KMeans)
// launches restarts lazily and stops once the best objective has not
// improved for that many consecutive restarts, with Restarts as the hard
// cap. EarlyStop = 0 (the default) runs the fixed best-of-Restarts
// protocol.
//
// Results are a pure function of (dataset, options): restart r derives its
// RNG from a splitmix-style child of Options.Seed, results — and the
// early-stop decision — are reduced in restart order, and ties keep the
// lowest restart — so Workers = 1 and Workers = N produce byte-identical
// Results, and a single-restart run reproduces the historical serial output
// for the same Seed. The cross-algorithm conformance suite
// (conformance_test.go) pins all three legs — worker invariance, chunk-size
// invariance, restart-0 ≡ base-seed — for every algorithm. Datasets are
// safe for any number of concurrent readers; concurrent Cluster calls may
// share one *Dataset.
//
//	opts := sspc.DefaultOptions(4)
//	opts.Restarts = 8 // 8 restarts, all CPUs, same answer as Workers=1
//	opts.EarlyStop = 3 // stop early once φ plateaus for 3 restarts
//	res, _ := sspc.Cluster(gt.Data, opts)
//
// # Datasets and sharding
//
// Datasets load from CSV (ReadCSV, ReadLabeledCSV — contract in
// docs/DATASETS.md) or are generated (Generate). For datasets too large to
// materialize through the flat loader's intermediates, ReadCSVSharded
// streams rows directly into shard-backed storage — contiguous row-range
// shards, each with its own backing slice — and ShardDataset re-backs an
// in-memory dataset the same way. Sharded storage is byte-identical to flat
// through every accessor and every algorithm (the conformance suite pins
// sharded-vs-flat equality for all five); the row-scanning chunked loops
// align one chunk per shard so each worker scans only its own shard's
// memory.
//
// For datasets larger than RAM there is a third storage tier: the .sspcb
// binary format (WriteBinaryDataset, ConvertCSVToBinary) stores the shard
// layout on disk with checksums and per-shard stat partials, and
// OpenBinaryDataset maps it read-only so the shards alias the file's pages —
// the algorithms run unmodified with peak heap near the gathered working
// set, and the disk-tier conformance leg pins the results byte-identical to
// flat. See docs/DATASETS.md, "The binary dataset format".
//
// Hot loops never read the matrix element-wise: Dataset.GatherRows and
// Dataset.GatherColumn bulk-copy a subset of rows (or one dimension of
// them) into caller scratch with per-shard copy ranges, and SSPC's
// dimension-selection pass runs on a columnar gather kernel built on them —
// allocation-free in steady state and bit-identical to the element-wise
// scan (see ARCHITECTURE.md, "The columnar evaluation kernel"). cmd/bench
// records the measured effect of changes to these paths in committed
// BENCH_<n>.json baselines.
//
// # Cancellation
//
// Every fit has a context-aware twin (ClusterContext, PROCLUSContext, …)
// with one shared contract: cancellation is observed at restart launches,
// iteration boundaries, and chunk boundaries of the hot scans, so a canceled
// fit returns the context's cause error — never a partial result — within a
// bounded amount of work, and leaks no goroutines. A fit that runs to
// completion is byte-identical to its context-free twin; the checks observe
// only the context, never the data. See ARCHITECTURE.md, "The cancellation
// contract", and docs/OPERATIONS.md for the serving-side deadline and
// cancellation knobs.
//
// # Serving fitted models
//
// A fitted result from SSPC, PROCLUS, or DOC carries its per-cluster
// assignment rule (Result.Fitted); ModelFromResult freezes it, with its
// provenance, into a versioned Model that Save/Load round-trip bit-exactly,
// and NewAssigner (or Model.Assigner) answers Step-3 assignment queries
// from it — allocation-free, concurrency-safe, and byte-identical to the
// fit that produced it. cmd/sspcd serves the same path over HTTP. See
// serving.go and ARCHITECTURE.md, "The serving layer".
//
// The subpackages under internal/ hold the implementations; this package is
// the stable public surface.
package sspc

import (
	"context"
	"io"

	"repro/internal/clarans"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/doc"
	"repro/internal/eval"
	"repro/internal/harp"
	"repro/internal/proclus"
	"repro/internal/synth"
)

// Dataset is a dense n×d matrix of objects (rows) by dimensions (columns).
type Dataset = dataset.Dataset

// Knowledge carries labeled objects and labeled dimensions (the paper's Io
// and Iv sets).
type Knowledge = dataset.Knowledge

// Result is a clustering: assignments (−1 = outlier), per-cluster selected
// dimensions, and the algorithm's objective score.
type Result = cluster.Result

// Outlier is the assignment value of objects on the outlier list.
const Outlier = cluster.Outlier

// NewDataset returns an n×d dataset of zeros.
func NewDataset(n, d int) (*Dataset, error) { return dataset.New(n, d) }

// FromRows builds a dataset from rows, copying the data.
func FromRows(rows [][]float64) (*Dataset, error) { return dataset.FromRows(rows) }

// ShardedDataset is a Dataset whose rows are partitioned into contiguous
// row-range shards, each with its own backing slice and column-stat partial.
// Sharded storage is byte-identical to flat through every accessor and every
// algorithm; it changes memory layout (the row-scanning chunked loops align
// one chunk per shard), never results.
type ShardedDataset = dataset.ShardedDataset

// ShardedReadOptions configures ReadCSVSharded: the rows-per-shard budget
// and an optional ingestion-progress callback.
type ShardedReadOptions = dataset.ShardedReadOptions

// ShardDataset re-backs ds as at most k contiguous row-range shards,
// copying the rows into per-shard slices; ds itself is left untouched. Pass
// the result's Dataset() to any algorithm.
func ShardDataset(ds *Dataset, k int) (*ShardedDataset, error) { return ds.Shards(k) }

// ReadCSV parses numeric CSV data into a flat dataset. When header is true
// the first record is skipped; every field must parse as a finite float64.
func ReadCSV(r io.Reader, header bool) (*Dataset, error) { return dataset.ReadCSV(r, header) }

// ReadLabeledCSV parses CSV whose last column is an integer class label
// (−1 for outliers), returning the feature dataset and the label column.
func ReadLabeledCSV(r io.Reader, header bool) (*Dataset, []int, error) {
	return dataset.ReadLabeledCSV(r, header)
}

// ReadCSVSharded streams CSV straight into a sharded dataset, one shard of
// opts.ShardRows rows at a time, without materializing one giant flat slice
// or the CSV intermediates; see docs/DATASETS.md for the memory arithmetic.
// It accepts exactly the inputs ReadCSV accepts, with identical values.
func ReadCSVSharded(r io.Reader, header bool, opts ShardedReadOptions) (*ShardedDataset, error) {
	return dataset.ReadCSVSharded(r, header, opts)
}

// WriteCSV writes the dataset as CSV; a non-nil labels slice (one entry per
// row) is appended as a final integer column.
func WriteCSV(w io.Writer, ds *Dataset, labels []int) error {
	return dataset.WriteCSV(w, ds, labels)
}

// BinaryDatasetFile is an opened .sspcb binary dataset: a versioned,
// checksummed on-disk shard layout whose shards alias the mapped file pages
// (mmap, read-only), so algorithms cluster datasets larger than RAM through
// the ordinary accessor seam. Obtain with OpenBinaryDataset; Close releases
// the mapping. See docs/DATASETS.md for the format.
type BinaryDatasetFile = binfmt.File

// BinaryDatasetInfo summarizes a written or opened binary dataset file.
type BinaryDatasetInfo = binfmt.Info

// ConvertCSVOptions configures ConvertCSVToBinary: the output shard
// granularity, whether the first segment opens with a header record, and an
// optional progress callback.
type ConvertCSVOptions = binfmt.ConvertOptions

// Typed binary-dataset errors, re-exported for errors.Is matching without
// importing the internal package. OpenBinaryDataset never returns a dataset
// built from bytes that fail verification — corrupted, truncated, or
// version-skewed files yield exactly these errors.
var (
	ErrBinaryBadMagic  = binfmt.ErrBadMagic
	ErrBinaryVersion   = binfmt.ErrVersion
	ErrBinaryTruncated = binfmt.ErrTruncated
	ErrBinaryChecksum  = binfmt.ErrChecksum
	ErrBinaryFormat    = binfmt.ErrFormat
)

// OpenBinaryDataset opens, maps, and fully verifies a binary dataset file
// (checksums, extents, stat partials, finiteness). The returned file's
// Dataset() is read-only and valid until Close.
func OpenBinaryDataset(path string) (*BinaryDatasetFile, error) { return binfmt.OpenBinary(path) }

// WriteBinaryDataset writes ds to path in the binary dataset format at the
// given shard granularity, atomically. The bytes depend only on the values
// and shardRows, never on ds's own storage layout.
func WriteBinaryDataset(path string, ds *Dataset, shardRows int) (BinaryDatasetInfo, error) {
	return binfmt.WriteBinaryFile(path, ds, shardRows)
}

// ConvertCSVToBinary streams pre-split CSV segments (one logical CSV, in
// order) into a binary dataset file, parsing segments concurrently and
// re-chunking rows into shards independently of the segment boundaries; the
// output is byte-identical to WriteBinaryDataset over the same matrix.
func ConvertCSVToBinary(out string, segments []string, opts ConvertCSVOptions) (BinaryDatasetInfo, error) {
	return binfmt.ConvertCSV(out, segments, opts)
}

// NewKnowledge returns an empty knowledge set; add labels with LabelObject
// and LabelDim.
func NewKnowledge() *Knowledge { return dataset.NewKnowledge() }

// Options configures SSPC; see DefaultOptions.
type Options = core.Options

// Threshold schemes for SSPC's dimension selection (paper §4.1).
const (
	SchemeM = core.SchemeM
	SchemeP = core.SchemeP
)

// DefaultOptions returns SSPC's default configuration (threshold scheme m,
// m = 0.5) for k clusters.
func DefaultOptions(k int) Options { return core.DefaultOptions(k) }

// Cluster runs SSPC on the dataset.
func Cluster(ds *Dataset, opts Options) (*Result, error) { return core.Run(ds, opts) }

// ClusterContext is Cluster under a context; see "Cancellation" in the
// package documentation for the shared contract.
func ClusterContext(ctx context.Context, ds *Dataset, opts Options) (*Result, error) {
	return core.RunContext(ctx, ds, opts)
}

// PROCLUSOptions configures the PROCLUS baseline; see PROCLUSDefaults.
type PROCLUSOptions = proclus.Options

// PROCLUSDefaults returns the PROCLUS defaults for k clusters with average
// cluster dimensionality l.
func PROCLUSDefaults(k, l int) PROCLUSOptions { return proclus.DefaultOptions(k, l) }

// PROCLUS runs the PROCLUS baseline (Aggarwal et al., SIGMOD 1999).
func PROCLUS(ds *Dataset, opts PROCLUSOptions) (*Result, error) { return proclus.Run(ds, opts) }

// PROCLUSContext is PROCLUS under a context; see "Cancellation" in the
// package documentation for the shared contract.
func PROCLUSContext(ctx context.Context, ds *Dataset, opts PROCLUSOptions) (*Result, error) {
	return proclus.RunContext(ctx, ds, opts)
}

// HARPOptions configures the HARP baseline; see HARPDefaults.
type HARPOptions = harp.Options

// HARPDefaults returns the HARP defaults for k clusters.
func HARPDefaults(k int) HARPOptions { return harp.DefaultOptions(k) }

// HARP runs the HARP baseline (Yip et al., TKDE 2004).
func HARP(ds *Dataset, opts HARPOptions) (*Result, error) { return harp.Run(ds, opts) }

// HARPContext is HARP under a context; see "Cancellation" in the package
// documentation for the shared contract.
func HARPContext(ctx context.Context, ds *Dataset, opts HARPOptions) (*Result, error) {
	return harp.RunContext(ctx, ds, opts)
}

// CLARANSOptions configures the CLARANS reference; see CLARANSDefaults.
type CLARANSOptions = clarans.Options

// CLARANSDefaults returns the CLARANS defaults for k clusters.
func CLARANSDefaults(k int) CLARANSOptions { return clarans.DefaultOptions(k) }

// CLARANS runs the non-projected CLARANS reference (Ng & Han, VLDB 1994).
func CLARANS(ds *Dataset, opts CLARANSOptions) (*Result, error) { return clarans.Run(ds, opts) }

// CLARANSContext is CLARANS under a context; see "Cancellation" in the
// package documentation for the shared contract.
func CLARANSContext(ctx context.Context, ds *Dataset, opts CLARANSOptions) (*Result, error) {
	return clarans.RunContext(ctx, ds, opts)
}

// DOCOptions configures the DOC / FastDOC baseline; see DOCDefaults.
type DOCOptions = doc.Options

// DOCDefaults returns DOC defaults for k clusters and box half-width w.
func DOCDefaults(k int, w float64) DOCOptions { return doc.DefaultOptions(k, w) }

// DOC runs the Monte-Carlo DOC baseline (Procopiuc et al., SIGMOD 2002).
// Set Options.Fast for the FastDOC heuristic.
func DOC(ds *Dataset, opts DOCOptions) (*Result, error) { return doc.Run(ds, opts) }

// DOCContext is DOC under a context; see "Cancellation" in the package
// documentation for the shared contract.
func DOCContext(ctx context.Context, ds *Dataset, opts DOCOptions) (*Result, error) {
	return doc.RunContext(ctx, ds, opts)
}

// ARI computes the Adjusted Rand Index in the exact form of the paper's
// Equation 5. Outliers (−1) on either side are treated as singletons.
func ARI(truth, pred []int) (float64, error) { return eval.ARI(truth, pred) }

// ARIHubertArabie computes the standard Hubert–Arabie adjusted Rand index.
func ARIHubertArabie(truth, pred []int) (float64, error) {
	return eval.ARIHubertArabie(truth, pred)
}

// NMI computes normalized mutual information between two partitions.
func NMI(truth, pred []int) (float64, error) { return eval.NMI(truth, pred) }

// Purity computes weighted majority-class purity of a predicted partition.
func Purity(truth, pred []int) (float64, error) { return eval.Purity(truth, pred) }

// FilterObjects returns copies of truth and pred with the given objects
// removed — used to exclude labeled objects from accuracy computations as
// the paper's protocol requires.
func FilterObjects(truth, pred []int, drop map[int]bool) ([]int, []int) {
	return eval.Filter(truth, pred, drop)
}

// DimQuality holds precision/recall/F1 of selected dimensions.
type DimQuality = eval.DimQuality

// DimSelectionQuality scores each cluster's selected dimensions against the
// matched class's true relevant dimensions.
func DimSelectionQuality(truth, pred []int, predDims, trueDims [][]int) DimQuality {
	return eval.DimSelectionQuality(truth, pred, predDims, trueDims)
}

// SynthConfig parameterizes the synthetic generator implementing the
// paper's data model (narrow local Gaussians on relevant dimensions, wide
// uniform global distribution elsewhere).
type SynthConfig = synth.Config

// GroundTruth is a generated dataset with its true labels, per-class
// relevant dimensions and local Gaussian parameters.
type GroundTruth = synth.GroundTruth

// Generate builds a synthetic dataset.
func Generate(cfg SynthConfig) (*GroundTruth, error) { return synth.Generate(cfg) }

// MultiGroup is a dataset with two independent valid groupings (§5.4).
type MultiGroup = synth.MultiGroup

// GenerateMultiGroup concatenates two independent clusterings of the same
// objects into a dataset with two possible groupings.
func GenerateMultiGroup(cfg1, cfg2 SynthConfig) (*MultiGroup, error) {
	return synth.GenerateMultiGroup(cfg1, cfg2)
}

// KnowledgeConfig controls how much supervision SampleKnowledge draws.
type KnowledgeConfig = synth.KnowledgeConfig

// Knowledge kinds for KnowledgeConfig.
const (
	NoKnowledge    = synth.NoKnowledge
	ObjectsOnly    = synth.ObjectsOnly
	DimsOnly       = synth.DimsOnly
	ObjectsAndDims = synth.ObjectsAndDims
)

// SampleKnowledge draws labeled objects / dimensions from a ground truth.
func SampleKnowledge(gt *GroundTruth, cfg KnowledgeConfig) (*Knowledge, error) {
	return synth.SampleKnowledge(gt, cfg)
}
