package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// shape is a generated dataset's size: n training rows of d dimensions, k=5
// classes relevant on l dimensions each, 5% outliers.
type shape struct{ N, D, L int }

const (
	classes     = 5
	outlierFrac = 0.05
	batchRows   = 32
	heldBatches = 32
	heldRows    = batchRows * heldBatches
	// shardRows is the shard size of every .sspcb file, datagen's default.
	shardRows = 4096
)

var (
	titleShape = shape{N: 4000, D: 400, L: 8}
	writeShape = shape{N: 2000, D: 100, L: 5}
)

// Seed tags: every input of a run derives from the workload seed and one of
// these, so the same seed always gives the same inputs.
const (
	tagData uint64 = iota + 1
	tagKnowledge
	tagFit
	tagWriteData
	tagWrites
)

// subSeed derives an independent seed from the workload seed (splitmix64).
func subSeed(seed int64, tag uint64) int64 {
	z := uint64(seed) + tag*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// gen is one generated dataset: the training rows with their true labels and
// held-out rows from the same distribution, which the fit never sees.
type gen struct {
	Train     *dataset.Dataset
	Truth     []int
	Dims      [][]int // true relevant dimensions per class
	Held      []float64
	HeldTruth []int
}

// generate draws n+held rows from internal/synth and keeps the last held
// rows back. Generated rows come in random order, so the tail is a random
// sample of every class.
func generate(s shape, held int, seed int64) (*gen, error) {
	gt, err := synth.Generate(synth.Config{
		N: s.N + held, D: s.D, K: classes, AvgDims: s.L, OutlierFrac: outlierFrac, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, s.N)
	for i := range rows {
		rows[i] = gt.Data.Row(i)
	}
	train, err := dataset.FromRows(rows)
	if err != nil {
		return nil, err
	}
	g := &gen{Train: train, Truth: gt.Labels[:s.N], Dims: gt.Dims, HeldTruth: gt.Labels[s.N:]}
	for i := s.N; i < s.N+held; i++ {
		g.Held = append(g.Held, gt.Data.Row(i)...)
	}
	return g, nil
}

// heldBatch returns the rows of held-out batch b as a JSON-ready matrix.
func (g *gen) heldBatch(b, d int) [][]float64 {
	out := make([][]float64, batchRows)
	for r := range out {
		x := b*batchRows + r
		out[r] = g.Held[x*d : (x+1)*d]
	}
	return out
}

// writeSegments writes the training rows, without labels, as parts CSV
// segments of one logical file and returns their paths.
func writeSegments(ds *dataset.Dataset, dir, name string, parts int) ([]string, error) {
	var paths []string
	n := ds.N()
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		rows := make([][]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, ds.Row(i))
		}
		part, err := dataset.FromRows(rows)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%02d.csv", name, p))
		if err := writeCSV(path, part, nil); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

func writeCSV(path string, ds *dataset.Dataset, labels []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := dataset.WriteCSV(w, ds, labels); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitmix is a small deterministic generator for the benchmark's own
// choices, independent of the program's RNG.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pick returns k distinct elements of xs (all of them when k >= len(xs)).
func (r *splitmix) pick(xs []int, k int) []int {
	c := append([]int(nil), xs...)
	if k > len(c) {
		k = len(c)
	}
	for i := 0; i < k; i++ {
		j := i + int(r.next()%uint64(len(c)-i))
		c[i], c[j] = c[j], c[i]
	}
	return c[:k]
}

// writeKnowledge labels per objects and per dims of every class, drawn from
// the true members and relevant dimensions, and writes them in the sspc
// -knowledge format.
func writeKnowledge(path string, g *gen, per int, seed int64) error {
	rng := &splitmix{s: uint64(seed)}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for c := 0; c < classes; c++ {
		var members []int
		for i, l := range g.Truth {
			if l == c {
				members = append(members, i)
			}
		}
		for _, i := range rng.pick(members, per) {
			fmt.Fprintf(w, "object %d %d\n", i, c)
		}
		for _, j := range rng.pick(g.Dims[c], per) {
			fmt.Fprintf(w, "dim %d %d\n", j, c)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
