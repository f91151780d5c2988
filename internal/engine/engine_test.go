package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

func TestChildSeedRestartZeroIsBase(t *testing.T) {
	for _, base := range []int64{0, 1, -7, 1 << 40} {
		if got := ChildSeed(base, 0); got != base {
			t.Errorf("ChildSeed(%d, 0) = %d, want the base seed", base, got)
		}
	}
}

func TestChildSeedsDecorrelated(t *testing.T) {
	seen := make(map[int64]int)
	for r := 0; r < 1000; r++ {
		s := ChildSeed(42, r)
		if prev, dup := seen[s]; dup {
			t.Fatalf("restarts %d and %d share seed %d", prev, r, s)
		}
		seen[s] = r
	}
	// Nearby bases must not produce overlapping child streams.
	for r := 1; r < 1000; r++ {
		if ChildSeed(42, r) == ChildSeed(43, r) {
			t.Fatalf("bases 42 and 43 collide at restart %d", r)
		}
	}
}

func TestRunPreservesRestartOrder(t *testing.T) {
	results, err := Run(context.Background(), 50, 8, 1, func(r int, _ *stats.RNG) (int, error) {
		return r * r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		if v != r*r {
			t.Fatalf("results[%d] = %d, want %d", r, v, r*r)
		}
	}
}

// TestRunWorkerCountInvariant is the engine's core guarantee: the same seed
// yields byte-identical results for any worker count, even when each restart
// consumes a different number of random draws.
func TestRunWorkerCountInvariant(t *testing.T) {
	draw := func(r int, rng *stats.RNG) ([]float64, error) {
		out := make([]float64, 3+r%5)
		for i := range out {
			out[i] = rng.Float64()
		}
		return out, nil
	}
	serial, err := Run(context.Background(), 40, 1, 99, draw)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 40} {
		parallel, err := Run(context.Background(), 40, workers, 99, draw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d diverged from workers=1", workers)
		}
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	draw := func(r int, rng *stats.RNG) (float64, error) { return rng.Float64(), nil }
	a, err := Run(context.Background(), 8, 4, 1, draw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), 8, 4, 2, draw)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 produced identical restart streams")
	}
}

func TestRunBoundedConcurrency(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int64
	_, err := Run(context.Background(), 64, workers, 1, func(r int, _ *stats.RNG) (int, error) {
		cur := active.Add(1)
		defer active.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent restarts, bound is %d", p, workers)
	}
}

func TestRunFirstErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, err := Run(context.Background(), 32, workers, 1, func(r int, _ *stats.RNG) (int, error) {
			if r >= 5 {
				return 0, fmt.Errorf("%w at %d", sentinel, r)
			}
			return r, nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error %v does not wrap the restart failure", workers, err)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var completed atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, 1000, 2, 1, func(r int, _ *stats.RNG) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			completed.Add(1)
			return r, nil
		})
		done <- err
	}()
	<-started
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := completed.Load(); n >= 1000 {
		t.Fatalf("all restarts ran despite cancellation")
	}
}

func TestRunZeroRestarts(t *testing.T) {
	results, err := Run(context.Background(), 0, 4, 1, func(r int, _ *stats.RNG) (int, error) {
		t.Fatal("restart function called for n=0")
		return 0, nil
	})
	if err != nil || results != nil {
		t.Fatalf("Run(n=0) = (%v, %v), want (nil, nil)", results, err)
	}
}

func TestRunNilFunction(t *testing.T) {
	if _, err := Run[int](context.Background(), 3, 2, 1, nil); err == nil {
		t.Fatal("nil restart function accepted")
	}
}

func TestBestTiesKeepLowestIndex(t *testing.T) {
	idx := best([]int{3, 7, 7, 1}, func(a, b int) bool { return a > b })
	if idx != 1 {
		t.Fatalf("Best = %d, want 1 (first of the tied maxima)", idx)
	}
	if best(nil, func(a, b int) bool { return a > b }) != -1 {
		t.Fatal("best(empty) != -1")
	}
}

// TestConcurrentRuns exercises several engine runs racing each other (for
// the -race build): the engine must not share any state across calls.
func TestConcurrentRuns(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			results, err := Run(context.Background(), 20, 4, seed, func(r int, rng *stats.RNG) (float64, error) {
				return rng.Float64(), nil
			})
			if err != nil || len(results) != 20 {
				t.Errorf("seed %d: %v (%d results)", seed, err, len(results))
			}
		}(int64(i))
	}
	wg.Wait()
}

// TestFitBestAndBudget: Fit normalizes the budget (Restarts <= 0 means one
// restart), hands every restart the same intra-restart share of the worker
// budget, returns every consumed result in restart order, and picks the
// best with ties going to the lowest restart — for every worker count.
func TestFitBestAndBudget(t *testing.T) {
	scores := []int{3, 7, 7, 1}
	for _, workers := range []int{1, 2, 8} {
		b := Budget{Restarts: len(scores), Workers: workers}
		best, all, err := Fit(context.Background(), b, 1, 0, func(a, b [2]int) bool { return a[1] > b[1] },
			func(r int, _ *stats.RNG, intra int) ([2]int, error) {
				if want := splitBudget(workers, len(scores)); intra != want {
					t.Errorf("workers=%d: intra = %d, want %d", workers, intra, want)
				}
				return [2]int{r, scores[r]}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if best != [2]int{1, 7} || len(all) != len(scores) {
			t.Fatalf("workers=%d: best %v of %d results, want restart 1 of %d", workers, best, len(all), len(scores))
		}
	}
	calls := 0
	if _, all, err := Fit(context.Background(), Budget{}, 1, 0, func(a, b int) bool { return a > b },
		func(int, *stats.RNG, int) (int, error) { calls++; return 0, nil }); err != nil || calls != 1 || len(all) != 1 {
		t.Fatalf("zero budget: %d calls, %d results, err %v; want one restart", calls, len(all), err)
	}
}

// TestBudgetNormalized: unset fields take the algorithm's defaults, whose
// own unset fields mean 1 restart and 512-element chunks; set fields and
// Workers pass through.
func TestBudgetNormalized(t *testing.T) {
	for _, tc := range []struct {
		b, def, want Budget
	}{
		{Budget{}, Budget{}, Budget{Restarts: 1, ChunkSize: 512}},
		{Budget{Restarts: -1, Workers: 3, ChunkSize: -5}, Budget{}, Budget{Restarts: 1, Workers: 3, ChunkSize: 512}},
		{Budget{}, Budget{Restarts: 2, ChunkSize: 32}, Budget{Restarts: 2, ChunkSize: 32}},
		{Budget{Restarts: 4, ChunkSize: 64}, Budget{Restarts: 2, ChunkSize: 32}, Budget{Restarts: 4, ChunkSize: 64}},
	} {
		if got := tc.b.Normalized(tc.def); got != tc.want {
			t.Errorf("%+v.Normalized(%+v) = %+v, want %+v", tc.b, tc.def, got, tc.want)
		}
	}
}
