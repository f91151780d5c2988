package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/clarans"
	"repro/internal/cluster"
	"repro/internal/synth"
)

// TestBestOfWorkersInvariance pins the harness determinism contract at its
// root: the best-of-repeats winner is identical for every worker count, and
// ties keep the lowest repeat.
func TestBestOfWorkersInvariance(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 120, D: 8, K: 2, AvgDims: 8, Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *cluster.Result {
		t.Helper()
		res, err := bestOf(context.Background(), 4, workers, 0, 7, func(s int64) (*cluster.Result, error) {
			opts := clarans.DefaultOptions(2)
			opts.Seed = s
			opts.MaxNeighbor = 40
			return clarans.Run(gt.Data, opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 4} {
		if !reflect.DeepEqual(serial, run(workers)) {
			t.Fatalf("bestOf winner changed with workers=%d", workers)
		}
	}
}

// TestBestOfPropagatesError checks that a failing repeat surfaces instead of
// silently shrinking the protocol.
func TestBestOfPropagatesError(t *testing.T) {
	sentinel := errors.New("cell failed")
	_, err := bestOf(context.Background(), 4, 2, 0, 0, func(s int64) (*cluster.Result, error) {
		if s == 2 {
			return nil, sentinel
		}
		return &cluster.Result{K: 1, Assignments: []int{0}}, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the repeat's failure", err)
	}
}

// TestParallelCells checks the cell fan-out helper: every cell runs exactly
// once and a cell failure propagates.
func TestParallelCells(t *testing.T) {
	var ran [5]atomic.Int64
	err := parallelCells(context.Background(), 4,
		func() error { ran[0].Add(1); return nil },
		func() error { ran[1].Add(1); return nil },
		func() error { ran[2].Add(1); return nil },
		func() error { ran[3].Add(1); return nil },
		func() error { ran[4].Add(1); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Errorf("cell %d ran %d times", i, n)
		}
	}
	sentinel := errors.New("cell failed")
	err = parallelCells(context.Background(), 2,
		func() error { return nil },
		func() error { return sentinel },
	)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the cell's failure", err)
	}
}

// TestSupervisionStylesWorkersInvariance renders the supervision-styles
// table serially and with the worker pool; identical tables prove the four
// promoted algorithms keep the determinism contract through the harness.
func TestSupervisionStylesWorkersInvariance(t *testing.T) {
	serialCfg := tiny()
	serialCfg.Workers = 1
	serial, err := SupervisionStyles(context.Background(), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := tiny()
	parallelCfg.Workers = 4
	parallel, err := SupervisionStyles(context.Background(), parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("SupervisionStyles table changed with Workers=4")
	}
}

// TestFigure4WorkersInvariance renders a real figure twice — serial and
// with the worker pool — and requires identical tables, proving the
// parallel harness reproduces the paper protocol exactly.
func TestFigure4WorkersInvariance(t *testing.T) {
	serialCfg := tiny()
	serialCfg.Workers = 1
	serial, err := Figure4(context.Background(), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := tiny()
	parallelCfg.Workers = 4
	parallel, err := Figure4(context.Background(), parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Figure4 table changed with Workers=4")
	}
}
