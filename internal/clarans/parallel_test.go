package clarans

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/synth"
)

// The generic parallelism contract (worker invariance, chunk-size
// invariance, restart-0 ≡ base-seed, concurrent shared datasets) is asserted
// for this package by the cross-algorithm conformance suite at the
// repository root (conformance_test.go). Only the CLARANS-specific restart
// default is pinned here.

// TestZeroRestartsMeansTwoLocalSearches pins the paper's numlocal default:
// an unset Restarts runs exactly the two local searches Restarts = 2 runs,
// and not the single one every other algorithm defaults to.
func TestZeroRestartsMeansTwoLocalSearches(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 150, D: 8, K: 2, AvgDims: 8, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	run := func(restarts int) *cluster.Result {
		opts := DefaultOptions(2)
		opts.Seed = 3
		opts.Restarts = restarts
		opts.MaxNeighbor = 60
		res, err := Run(gt.Data, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, two, one := run(0), run(2), run(1)
	if !reflect.DeepEqual(def, two) {
		t.Fatal("Restarts=0 diverged from Restarts=2")
	}
	if def.Iterations == one.Iterations {
		t.Fatal("Restarts=0 ran a single local search")
	}
}
