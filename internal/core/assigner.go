package core

import (
	"fmt"

	"repro/internal/cluster"
)

// Assigner scores points against a fitted model's per-cluster (dims, rep,
// ŝ²) triples with the same packed Step-3 rule the fit itself uses
// (scorePoint in assign.go): fitting is rare and expensive, scoring is
// O(K·|V|) per point and perpetual, so this is the serving hot path.
//
// An Assigner is immutable after construction — scoring reads only the
// packed triples and writes only the caller's output — so any number of
// goroutines may call AssignPoint / AssignBatch concurrently with no
// locking and no per-caller scratch. The batch form allocates nothing in
// steady state (TestAssignerZeroAlloc pins it, like
// TestAssignZeroAllocSteadyState pins the in-fit kernel).
type Assigner struct {
	d        int
	packDims [][]int
	packRep  [][]float64
	packSHat [][]float64
}

// NewAssigner builds a serving assigner for points of dimensionality d from
// per-cluster fitted triples. Every triple is validated up front
// (cluster.FittedCluster.Validate) so the hot path can skip all checks:
// parallel slices of equal length, strictly ascending dims in [0, d), finite
// representatives, finite strictly positive thresholds.
func NewAssigner(d int, fitted []cluster.FittedCluster) (*Assigner, error) {
	if d <= 0 {
		return nil, fmt.Errorf("assigner: dimensionality %d", d)
	}
	if len(fitted) == 0 {
		return nil, fmt.Errorf("assigner: no fitted clusters")
	}
	a := &Assigner{
		d:        d,
		packDims: make([][]int, len(fitted)),
		packRep:  make([][]float64, len(fitted)),
		packSHat: make([][]float64, len(fitted)),
	}
	for i := range fitted {
		fc := &fitted[i]
		if err := fc.Validate(d); err != nil {
			return nil, fmt.Errorf("assigner: cluster %d: %w", i, err)
		}
		a.packDims[i] = append([]int(nil), fc.Dims...)
		a.packRep[i] = append([]float64(nil), fc.Rep...)
		a.packSHat[i] = append([]float64(nil), fc.SHat...)
	}
	return a, nil
}

// K returns the number of clusters a point can be assigned to.
func (a *Assigner) K() int { return len(a.packDims) }

// D returns the point dimensionality the assigner expects.
func (a *Assigner) D() int { return a.d }

// AssignPoint scores one point (its first D() values are read) and returns
// the winning cluster index, or cluster.Outlier when the point improves no
// cluster. Allocation-free; safe for concurrent callers.
func (a *Assigner) AssignPoint(row []float64) (int, error) {
	if len(row) < a.d {
		return 0, fmt.Errorf("assigner: point has %d values, model needs %d", len(row), a.d)
	}
	return scorePoint(row, a.packDims, a.packRep, a.packSHat), nil
}

// AssignBatch scores len(out) points stored row-major in rows (point x is
// rows[x*D() : (x+1)*D()]) and writes each winner — or cluster.Outlier —
// into out[x]. Beyond the one shape check it is allocation-free, and because
// the assigner is immutable any number of goroutines may run batches
// concurrently on disjoint outputs.
func (a *Assigner) AssignBatch(rows []float64, out []int) error {
	if len(rows) != len(out)*a.d {
		return fmt.Errorf("assigner: %d row values for %d points of dimensionality %d", len(rows), len(out), a.d)
	}
	for x := range out {
		out[x] = scorePoint(rows[x*a.d:(x+1)*a.d], a.packDims, a.packRep, a.packSHat)
	}
	return nil
}
