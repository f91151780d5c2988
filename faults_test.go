package sspc

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/model"
)

// The seed-driven chaos matrix (run by the chaos-smoke CI job under -race):
// every named injection site in internal/faults is armed in turn, in error
// and panic mode, against the code path that owns it — fit restarts, the
// chunk scheduler, the bulk shard gathers, the mmap open, the model
// registry's disk I/O — and each run must surface a typed error that matches
// faults.ErrInjected, return no partial result, and leave the goroutine
// count at its baseline. TestFaultsSitesExercised closes the loop: a site
// whose hit counter stays at zero is a site the matrix no longer reaches.

// armFaults arms the registry for one subtest and guarantees it is disarmed
// on exit, so no fault plan can leak into later tests (the registry is
// process-global).
func armFaults(t *testing.T, plans ...faults.Plan) {
	t.Helper()
	faults.Enable(plans...)
	t.Cleanup(faults.Disable)
}

// fitUnderFault runs a parallel multi-restart SSPC fit on ds and returns its
// outcome; every fit-side injection site (restart launch, chunk execution,
// shard gather) sits on this path.
func fitUnderFault(ds *Dataset) (*Result, error) {
	opts := DefaultOptions(3)
	opts.Seed = 5
	opts.Restarts = 4
	opts.Workers = 4
	return Cluster(ds, opts)
}

// mmapFixture round-trips the deterministic fixture through the binary
// format and reopens it mmap-backed.
func mmapFixture(t *testing.T, gt *GroundTruth) *Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "faults.sspcb")
	if _, err := WriteBinaryDataset(path, gt.Data, (gt.Data.N()+2)/3); err != nil {
		t.Fatal(err)
	}
	fl, err := OpenBinaryDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return fl.Dataset()
}

// TestFaultsFitMatrix is the fit-path leg: each fit-side site × {error,
// panic} × {flat, mmap} must fail the run with a typed injected error — a
// panic contained into *engine.PanicError, never a crashed process — with a
// nil result and no leaked goroutines.
func TestFaultsFitMatrix(t *testing.T) {
	gt := detFixture(t)
	storage := map[string]*Dataset{"flat": gt.Data, "mmap": mmapFixture(t, gt)}
	sites := []string{faults.SiteRestartLaunch, faults.SiteChunkExec, faults.SiteShardGather}
	for _, site := range sites {
		for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic} {
			for label, ds := range storage {
				name := fmt.Sprintf("%s/%s/%s", site, mode, label)
				t.Run(name, func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					armFaults(t, faults.DerivePlan(41, site, mode, 8))
					res, err := fitUnderFault(ds)
					if err == nil {
						t.Fatal("fit succeeded with an armed fault site")
					}
					if !errors.Is(err, faults.ErrInjected) {
						t.Errorf("err = %v, want a faults.ErrInjected chain", err)
					}
					if res != nil {
						t.Error("failed fit returned a partial result")
					}
					// The shard-gather site raises through MustCheck even in
					// error mode, so it is contained like a panic; for the
					// others only panic mode should wear the typed wrapper.
					var pe *engine.PanicError
					wantPanic := mode == faults.ModePanic || site == faults.SiteShardGather
					if got := errors.As(err, &pe); got != wantPanic {
						t.Errorf("errors.As(*engine.PanicError) = %v, want %v (err = %v)", got, wantPanic, err)
					}
					faults.Disable()
					settleGoroutines(t, baseline, name)
				})
			}
		}
	}
}

// TestFaultsChunkErrorSweep is the chunk-seam leg: for every algorithm in
// the conformance table, on the inline chunk path (Workers = 1) and on the
// pool path (one restart owning four workers), the chunk-execution site is
// armed at a sweep of hit counts across the run's chunk dispatches. An
// injected error must come back as a plain error matching
// faults.ErrInjected — never dressed up as a contained panic — and an
// injected panic must come back as a *engine.PanicError; either way with a
// nil result and no leaked goroutines.
func TestFaultsChunkErrorSweep(t *testing.T) {
	gt, err := Generate(SynthConfig{N: 90, D: 12, K: 3, AvgDims: 6, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]confRun{
		"inline": {seed: 3, restarts: 2, workers: 1, chunkSize: 16},
		"pool":   {seed: 3, restarts: 1, workers: 4, chunkSize: 16},
	}
	for _, algo := range conformanceAlgos() {
		reached := false
		for label, r := range runs {
			// A delay of zero only counts the run's chunk dispatches.
			armFaults(t, faults.Plan{Site: faults.SiteChunkExec, Mode: faults.ModeDelay})
			if _, err := algo.run(gt.Data, r); err != nil {
				t.Fatalf("%s/%s: counting run failed: %v", algo.name, label, err)
			}
			hits := faults.Hits(faults.SiteChunkExec)
			faults.Disable()
			if hits == 0 {
				continue // e.g. HARP's serial merge scan has no chunks
			}
			reached = true
			afters := map[uint64]bool{1: true, hits/2 + 1: true, hits: true}
			for after := range afters {
				for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic} {
					name := fmt.Sprintf("%s/%s/%s/after=%d-of-%d", algo.name, label, mode, after, hits)
					baseline := runtime.NumGoroutine()
					armFaults(t, faults.Plan{Site: faults.SiteChunkExec, Mode: mode, After: after})
					res, err := algo.run(gt.Data, r)
					faults.Disable()
					if err == nil || res != nil {
						t.Fatalf("%s: (res %v, err %v), want a failed fit", name, res != nil, err)
					}
					if !errors.Is(err, faults.ErrInjected) {
						t.Errorf("%s: err = %v, want a faults.ErrInjected chain", name, err)
					}
					var pe *engine.PanicError
					if got, want := errors.As(err, &pe), mode == faults.ModePanic; got != want {
						t.Errorf("%s: errors.As(*engine.PanicError) = %v, want %v (err = %v)", name, got, want, err)
					}
					settleGoroutines(t, baseline, name)
				}
			}
		}
		if !reached {
			t.Errorf("%s: no run dispatched a chunk — the sweep lost coverage", algo.name)
		}
	}
}

// TestFaultsMmapOpen: an armed mmap-open site fails OpenBinaryDataset with
// the typed injected error before any page is mapped.
func TestFaultsMmapOpen(t *testing.T) {
	gt := detFixture(t)
	path := filepath.Join(t.TempDir(), "open.sspcb")
	if _, err := WriteBinaryDataset(path, gt.Data, gt.Data.N()); err != nil {
		t.Fatal(err)
	}
	armFaults(t, faults.Plan{Site: faults.SiteMmapOpen, Mode: faults.ModeError})
	if _, err := OpenBinaryDataset(path); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("OpenBinaryDataset err = %v, want faults.ErrInjected", err)
	}
	faults.Disable()
	fl, err := OpenBinaryDataset(path)
	if err != nil {
		t.Fatalf("disarmed reopen: %v", err)
	}
	fl.Close()
}

// TestFaultsModelIO: the registry's Save and Load both pass the model-I/O
// gate, so an armed site turns either direction of persistence into the
// typed injected error.
func TestFaultsModelIO(t *testing.T) {
	gt := detFixture(t)
	res, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.FromResult("sspc", "conformance", 5, model.DatasetHash(gt.Data), gt.Data.D(), res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fit.sspcm")

	armFaults(t, faults.Plan{Site: faults.SiteModelIO, Mode: faults.ModeError})
	if err := m.Save(path); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("Save err = %v, want faults.ErrInjected", err)
	}
	faults.Disable()
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	armFaults(t, faults.Plan{Site: faults.SiteModelIO, Mode: faults.ModeError})
	if _, err := model.Load(path); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("Load err = %v, want faults.ErrInjected", err)
	}
	faults.Disable()
	if _, err := model.Load(path); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsDelayIsHarmless: ModeDelay perturbs timing only — the fit still
// succeeds and returns the byte-identical Result, which is the scheduling
// half of the determinism contract restated as a chaos leg.
func TestFaultsDelayIsHarmless(t *testing.T) {
	gt := detFixture(t)
	want, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t,
		faults.Plan{Site: faults.SiteRestartLaunch, Mode: faults.ModeDelay, Delay: time.Millisecond},
		faults.Plan{Site: faults.SiteChunkExec, Mode: faults.ModeDelay, Delay: 100 * time.Microsecond, After: 3},
	)
	got, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("delay injection changed the fit result — scheduling leaked into output")
	}
}

// TestFaultsSitesExercised arms every named site in delay mode at once and
// drives the full surface (fit, mmap open, model save/load); every site's
// hit counter must move, proving the matrix still reaches each gate after
// refactors.
func TestFaultsSitesExercised(t *testing.T) {
	gt := detFixture(t)
	plans := make([]faults.Plan, 0, len(faults.Sites()))
	for _, site := range faults.Sites() {
		plans = append(plans, faults.Plan{Site: site, Mode: faults.ModeDelay})
	}
	armFaults(t, plans...)

	path := filepath.Join(t.TempDir(), "sites.sspcb")
	if _, err := WriteBinaryDataset(path, gt.Data, (gt.Data.N()+1)/2); err != nil {
		t.Fatal(err)
	}
	fl, err := OpenBinaryDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	res, err := fitUnderFault(fl.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.FromResult("sspc", "conformance", 5, fl.ContentHash(), fl.Dataset().D(), res)
	if err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(t.TempDir(), "sites.sspcm")
	if err := m.Save(mpath); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Load(mpath); err != nil {
		t.Fatal(err)
	}
	for _, site := range faults.Sites() {
		if faults.Hits(site) == 0 {
			t.Errorf("site %s was never reached — the chaos matrix lost coverage", site)
		}
	}
}

// TestFaultsDisarmedIsFree: with the registry disarmed, Check answers nil
// and a fit reproduces the exact same bytes as one that never saw the
// registry — the injection seam is invisible in production.
func TestFaultsDisarmedIsFree(t *testing.T) {
	faults.Disable()
	if faults.Armed() {
		t.Fatal("registry armed after Disable")
	}
	if err := faults.Check(faults.SiteChunkExec); err != nil {
		t.Fatalf("disarmed Check = %v, want nil", err)
	}
	gt := detFixture(t)
	want, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t, faults.Plan{Site: faults.SiteRestartLaunch, Mode: faults.ModeDelay, Delay: time.Millisecond})
	if _, err := fitUnderFault(gt.Data); err != nil {
		t.Fatal(err)
	}
	faults.Disable()
	got, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("fit after arm/disarm cycle diverged from the never-armed fit")
	}
}
