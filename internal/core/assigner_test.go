package core

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/synth"
)

// fitForServing runs a small SSPC fit that is expected to emit a servable
// Fitted snapshot and returns the result plus the training rows flattened
// row-major (the layout AssignBatch consumes).
func fitForServing(t *testing.T) (*cluster.Result, []float64, int) {
	t.Helper()
	gt := generate(t, synth.Config{N: 300, D: 30, K: 3, AvgDims: 6, Seed: 77})
	opts := DefaultOptions(3)
	opts.Seed = 7
	res := runSSPC(t, gt, opts)
	if res.Fitted == nil {
		t.Fatal("SSPC result carries no fitted snapshot")
	}
	ds := gt.Data
	rows := make([]float64, 0, ds.N()*ds.D())
	for x := 0; x < ds.N(); x++ {
		rows = append(rows, ds.Row(x)...)
	}
	return res, rows, ds.D()
}

// The tentpole identity: an Assigner built from the fit's own Fitted snapshot
// re-scores the training rows to exactly the assignments the fit reported —
// the serve path and the in-process Step 3 are the same arithmetic in the
// same order.
func TestAssignerReproducesTrainingAssignments(t *testing.T) {
	res, rows, d := fitForServing(t)
	a, err := NewAssigner(d, res.Fitted)
	if err != nil {
		t.Fatal(err)
	}
	if a.K() != res.K || a.D() != d {
		t.Fatalf("K=%d D=%d, want K=%d D=%d", a.K(), a.D(), res.K, d)
	}
	n := len(res.Assignments)
	out := make([]int, n)
	if err := a.AssignBatch(rows, out); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < n; x++ {
		if out[x] != res.Assignments[x] {
			t.Fatalf("object %d: batch assign %d, fit assigned %d", x, out[x], res.Assignments[x])
		}
	}
	for x := 0; x < n; x++ {
		c, err := a.AssignPoint(rows[x*d : (x+1)*d])
		if err != nil {
			t.Fatal(err)
		}
		if c != res.Assignments[x] {
			t.Fatalf("object %d: point assign %d, fit assigned %d", x, c, res.Assignments[x])
		}
	}
}

// An Assigner is immutable: concurrent batches on disjoint outputs must agree
// with the serial answer (run under -race in CI).
func TestAssignerConcurrentCallers(t *testing.T) {
	res, rows, d := fitForServing(t)
	a, err := NewAssigner(d, res.Fitted)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Assignments)
	const callers = 8
	outs := make([][]int, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		outs[g] = make([]int, n)
		wg.Add(1)
		go func(out []int) {
			defer wg.Done()
			if err := a.AssignBatch(rows, out); err != nil {
				t.Error(err)
			}
		}(outs[g])
	}
	wg.Wait()
	for g := 0; g < callers; g++ {
		for x := 0; x < n; x++ {
			if outs[g][x] != res.Assignments[x] {
				t.Fatalf("caller %d object %d: %d != %d", g, x, outs[g][x], res.Assignments[x])
			}
		}
	}
}

// The serving hot path allocates nothing in steady state — the serve-side
// twin of TestAssignZeroAllocSteadyState.
func TestAssignerZeroAlloc(t *testing.T) {
	res, rows, d := fitForServing(t)
	a, err := NewAssigner(d, res.Fitted)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(res.Assignments))
	if avg := testing.AllocsPerRun(20, func() {
		if err := a.AssignBatch(rows, out); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AssignBatch allocates %v per call, want 0", avg)
	}
	row := rows[:d]
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := a.AssignPoint(row); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AssignPoint allocates %v per call, want 0", avg)
	}
}

func TestAssignerValidation(t *testing.T) {
	good := []cluster.FittedCluster{{Dims: []int{0, 2}, Rep: []float64{1, 2}, SHat: []float64{1, 1}}}
	if _, err := NewAssigner(0, good); err == nil {
		t.Error("d=0 should error")
	}
	if _, err := NewAssigner(3, nil); err == nil {
		t.Error("no clusters should error")
	}
	if _, err := NewAssigner(2, good); err == nil {
		t.Error("dim 2 with d=2 should error")
	}
	bad := []cluster.FittedCluster{{Dims: []int{0}, Rep: []float64{1}, SHat: []float64{0}}}
	if _, err := NewAssigner(3, bad); err == nil {
		t.Error("ŝ²=0 should error")
	}
	a, err := NewAssigner(3, good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AssignPoint([]float64{1, 2}); err == nil {
		t.Error("short point should error")
	}
	if err := a.AssignBatch(make([]float64, 7), make([]int, 2)); err == nil {
		t.Error("row/out shape mismatch should error")
	}
	// Construction deep-copies: mutating the source triples must not change
	// the assigner's answers.
	row := []float64{1, 0, 2}
	before, err := a.AssignPoint(row)
	if err != nil {
		t.Fatal(err)
	}
	good[0].Rep[0] = 999
	after, err := a.AssignPoint(row)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("assigner shares memory with caller triples: %d -> %d", before, after)
	}
}
