package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/eval"
	"repro/internal/model"
)

const (
	// How many times a run sets up; setup_s is the median. fit-title's
	// set-up (one datagen -convert) is cheap, so it repeats more often than
	// serve's, which fits a fit-title-shaped model each time.
	titleSetupReps = 9
	serveSetupReps = 5
	// limitMs is the p99 latency limit of assign_max_rps.
	limitMs = 50
	// ARI floors, below the lowest ARI seen over the tuning seeds (fit-title
	// 0.988, served models 0.88): a drop below one means the clustering
	// broke, not that the data was hard.
	titleFloor = 0.90
	serveFloor = 0.70
	// writeSets is how many datasets the serve workload's writes rotate over.
	writeSets = 16
	// latencyRate is the /assign rate of the printed median and 99th
	// percentile latencies.
	latencyRate = 100
)

// The /assign ladder of the serve workload. The 100 rps rung, which reports
// p50 and p99, gets enough time for more than 1000 samples at the default
// run length.
var serveRungs = []rung{{50, 0.35}, {100, 0.35}, {150, 0.15}, {200, 0.15}}

// metricDoc describes one metric: how it is obtained and, for a per-layer
// metric, which end-to-end metric it should move on which workload. A
// metric that is not gated is printed with its sample count but left out
// of the JSON line and BENCHMARK.json, because its run-to-run spread on a
// small host is wider than the largest bound a gate may have.
type metricDoc struct {
	name, unit, how string
	gated           bool
}

var endToEnd = []metricDoc{
	{"setup_s", "s", "median set-up. fit-title: datagen -convert of the CSV segments; serve: sspcd start until the first model is fitted over HTTP", true},
	{"fit_s", "s", "median time of one fit. fit-title: an sspc process, start to exit, over the run's datasets; serve: a write, POST /fit to done, under the read load", true},
	{"fit_rss_mb", "MB", "peak resident set of the fitting process: median over the run's sspc processes; serve: median peak over the run's sspcd processes", true},
	{"ari", "ratio", "ARI against the truth: median over the run's fits; serve: the held-out rows assigned by the served models", true},
	{"assign_p50_ms", "ms", "serve: median /assign latency at 100 rps, from each request's due time", false},
	{"assign_p99_ms", "ms", "serve: 99th percentile /assign latency at 100 rps, from each request's due time", false},
	{"assign_max_rps", "1/s", "serve: highest ladder rate (50, 100, 150, 200) with p99 <= 50 ms and no growing backlog", false},
}

// perLayer lists the per-layer metrics with what each should move: "->"
// names the end-to-end metric and workloads it feeds, "not" the workloads
// where it should stay put. fit-wide, a CSV fit with 4 restarts that the
// design named as the control for Step 4 and the restart engine, is not a
// workload of this benchmark; the targets still name it.
var perLayer = []metricDoc{
	{"binfmt.convert_s", "s", "measured: binfmt.ConvertCSV -> setup_s on fit-title", true},
	{"binfmt.open_s", "s", "measured: binfmt.OpenBinary -> fit_s on fit-title; not fit-wide", true},
	{"dataset.read_csv_s", "s", "measured: dataset.ReadLabeledCSV of the fit's rows as labeled CSV -> fit_s on fit-wide; not fit-title", true},
	{"core.validate_s", "s", "measured: core.ValidateKnowledge -> fit_s on fit-title; not fit-wide", true},
	{"core.init_s", "s", "measured: fit start to Trace.OnInit, median over restarts -> fit_s on fit-wide (more), fit-title; not serve reads", true},
	{"core.iter_s", "s", "measured: median gap between OnIteration calls -> fit_s on fit-title (more), fit-wide, serve", true},
	{"core.iterations", "count", "measured: OnIteration calls; must repeat exactly, a change means the output changed", true},
	{"core.selected_dims", "count", "measured: selected dims of the final clusters; must repeat exactly", true},
	{"dataset.median_vector_s", "s", "replayed: sum of MedianVector over the final clusters (Step 6) -> fit_s on fit-title; not serve reads", true},
	{"dataset.gather_rows_s", "s", "replayed: sum of GatherRows over the final clusters (Step 4 input) -> fit_s on fit-title; not serve reads", true},
	{"core.assign_batch_s", "s", "replayed: Assigner.AssignBatch on all n rows (Step 3); serve: one 32-row batch -> fit_s on fit-wide, assign_p50_ms on serve", true},
	{"core.step4_residual_s", "s", "derived: core.iter_s - Step-3 replay - Step-6 replay -> fit_s on fit-title; not serve reads", true},
	{"engine.speedup_w2", "ratio", "measured: in-process fit wall at workers=1 / workers=2 -> fit_s on fit-wide (about 2x); not fit-title", true},
	{"model.encode_s", "s", "measured: model.Encode of the served model (fit-title: of its fit) -> setup_s, fit_s on serve", true},
	{"model.decode_s", "s", "measured: model.Decode of the served model (fit-title: of its fit) -> setup_s, fit_s on serve", true},
	{"model.bytes", "bytes", "measured: encoded size of the served model (fit-title: of its fit)", true},
	{"sspcd.models", "count", "measured: GET /models at the end of the run (memory) -> serve; fit-title: one model, served only in the traced run", true},
	{"sspcd.rss_mb", "MB", "measured: sspcd VmRSS at the end of the run (memory) -> serve; fit-title: one model, served only in the traced run", true},
	{"loadgen.late_ms_p99", "ms", "measured: p99 of how late the generator sent requests; says whether assign_max_rps can be trusted -> serve", true},
	{"loadgen.backlog_max", "count", "measured: largest count of due but unsent requests -> serve", true},
	{"trace.overhead", "ratio", "measured: traced / untraced in-process fit wall time", true},
}

// fitInput is one fit-title dataset, ready for sspc.
type fitInput struct {
	g     *gen
	fc    *fitCase
	hash  string
	pc    *probeCase // the traced run's probes; first dataset only
	close func()
}

// prepareTitle generates fit-title dataset i, writes its knowledge file and
// makes its .sspcb file. With reps > 0 the file is converted from CSV
// segments with datagen reps times, and the conversions' wall times are the
// set-up times.
func prepareTitle(cfg *config, res *result, i, reps int) (*fitInput, []float64, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("dataset-%02d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	g, err := generate(titleShape, heldRows, subSeed(subSeed(cfg.seed, tagData), uint64(i)))
	if err != nil {
		return nil, nil, err
	}
	knPath := filepath.Join(dir, "knowledge.txt")
	if err := writeKnowledge(knPath, g, 5, subSeed(subSeed(cfg.seed, tagKnowledge), uint64(i))); err != nil {
		return nil, nil, err
	}
	bin := filepath.Join(dir, "title.sspcb")
	var segs []string
	var setups []float64
	if reps == 0 {
		// Only set-up is timed, so later datasets skip the CSV round trip
		// and are written in-process, leaving more of the run to fits.
		_, err := binfmt.WriteBinaryFile(bin, g.Train, shardRows)
		res.op(err)
		if err != nil {
			return nil, nil, err
		}
	} else if segs, err = writeSegments(g.Train, dir, "title", 4); err != nil {
		return nil, nil, err
	}
	for r := 0; r < reps; r++ {
		wall, err := convert(cfg, bin, segs)
		res.op(err)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, wall)
	}
	fl, err := binfmt.OpenBinary(bin)
	if err != nil {
		return nil, nil, err
	}
	res.op(sameData(fl.Dataset(), g.Train))
	kn, err := readKnowledge(knPath)
	if err != nil {
		fl.Close()
		return nil, nil, err
	}
	opts := core.DefaultOptions(classes)
	opts.Seed = subSeed(subSeed(cfg.seed, tagFit), uint64(i))
	opts.Restarts, opts.Workers, opts.Knowledge = 1, 2, kn
	in := &fitInput{g: g, hash: fl.ContentHash(), close: func() { fl.Close() }}
	in.fc = &fitCase{
		args: []string{"-data", bin, "-k", strconv.Itoa(classes), "-knowledge", knPath, "-validate",
			"-restarts", "1", "-workers", "2", "-seed", strconv.FormatInt(opts.Seed, 10)},
		ds: fl.Dataset(), opts: opts, truth: g.Truth, floor: titleFloor,
	}
	if cfg.trace && i == 0 {
		labeled := filepath.Join(dir, "title-labeled.csv")
		if err := writeCSV(labeled, g.Train, g.Truth); err != nil {
			fl.Close()
			return nil, nil, err
		}
		in.pc = &probeCase{segs: segs, labeled: labeled, opts: opts, validate: true}
	}
	return in, setups, nil
}

// fitTitle fits one fit-title dataset after another until the run's time is
// used, each once with sspc, checked byte for byte against the in-process
// reference. Fit time and memory depend on the data, so the run's median
// over several datasets is what the workload reports.
//
// A traced run fits once, serves that model from sspcd for a short /assign
// pass, since a traced run reports every per-layer metric, the sspcd and
// loadgen ones included, and then runs the probes.
func fitTitle(cfg *config, res *result) error {
	start := time.Now()
	budget := cfg.budget(1)
	if cfg.trace {
		budget = 0
	}
	first, setups, err := prepareTitle(cfg, res, 0, titleSetupReps)
	if err != nil {
		return err
	}
	defer first.close()
	firstRef, err := first.fc.reference()
	if err != nil {
		return err
	}

	var walls, rss, aris, iters []float64
	in, ref := first, firstRef
	var last time.Duration
	for i := 0; ; i++ {
		began := time.Now()
		if i > 0 {
			if in, _, err = prepareTitle(cfg, res, i, 0); err != nil {
				return err
			}
			if ref, err = in.fc.reference(); err != nil {
				in.close()
				return err
			}
		}
		ari, err := in.fc.checkARI(ref)
		res.op(err)
		aris, iters = append(aris, ari), append(iters, float64(ref.Iterations))
		fitStart := time.Now()
		wall, mb, err := runSSPC(cfg.tool("sspc"), in.fc.args, perObject(ref))
		cfg.rec.add(0, fmt.Sprintf("dataset-%d", i), "sspc.fit", fitStart, time.Now())
		res.op(err)
		if err == nil {
			walls, rss = append(walls, wall), append(rss, mb)
		}
		if i > 0 {
			in.close()
		}
		last = time.Since(began)
		if time.Since(start)+last > budget {
			break
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no sspc fit finished")
	}
	fmt.Fprintf(os.Stderr, "perfbench: sspc wall %.3f s, peak RSS %.1f MB, ARI %.4f, iterations %v\n", walls, rss, aris, iters)

	if cfg.trace {
		if err := serveFit(cfg, res, first, firstRef); err != nil {
			return err
		}
		return probe(cfg, res, first.pc, false)
	}
	n := fmt.Sprintf("median of %d datasets", len(walls))
	res.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	res.add("fit_s", "s", median(walls), n)
	res.add("fit_rss_mb", "MB", median(rss), n)
	res.add("ari", "ratio", median(aris), n+"; every sspc output byte-identical to the in-process fit")
	return nil
}

// serveFit uploads a fit's model to a fresh sspcd and sends it /assign
// requests at latencyRate for a fifth of the run, without writes.
func serveFit(cfg *config, res *result, in *fitInput, ref *cluster.Result) error {
	m, err := model.FromResult("sspc", "perfbench", in.fc.opts.Seed, in.hash, in.fc.ds.D(), ref)
	if err != nil {
		return err
	}
	enc, err := m.Encode()
	if err != nil {
		return err
	}
	d, err := startDaemon(cfg.tool("sspcd"), cfg.conns)
	if err != nil {
		return err
	}
	key, err := d.upload(enc)
	res.op(err)
	if err != nil {
		return err
	}
	rd, err := prepareReads(d, key, in.g, in.fc.ds.D())
	if err != nil {
		return err
	}
	endRead(cfg, res, d, readPhase(cfg, res, d, rd, []rung{{latencyRate, 1}}, cfg.budget(0.2)))
	return nil
}

func serve(cfg *config, res *result) error {
	// The writes rotate over several small datasets, so their median fit
	// time does not hang on one draw of the data.
	var writes []*gen
	var writeSegs [][]string
	var writeBins []string
	for i := 0; i < writeSets; i++ {
		w, err := generate(writeShape, 0, subSeed(subSeed(cfg.seed, tagWriteData), uint64(i)))
		if err != nil {
			return err
		}
		segs, err := writeSegments(w.Train, cfg.dir, fmt.Sprintf("write%d", i), 2)
		if err != nil {
			return err
		}
		bin := filepath.Join(cfg.dir, fmt.Sprintf("write%d.sspcb", i))
		_, err = convert(cfg, bin, segs)
		res.op(err)
		if err != nil {
			return err
		}
		writes, writeSegs, writeBins = append(writes, w), append(writeSegs, segs), append(writeBins, bin)
	}

	// Set-up: from daemon start until the first model is fitted over HTTP
	// and registered, on fresh daemons so the fit is never a registry hit.
	// Each set-up fits its own fit-title-shaped dataset with its own seed,
	// so the median does not hang on one draw of the data, and the ARI of
	// every fitted model on its held-out rows is checked. The last daemon
	// stays up and serves the last model.
	//
	// The resident set swings with every garbage collection, so a daemon's
	// memory is its peak, read when it stops, as for an sspc process; the
	// last daemon's peak also covers the reads and writes.
	var times, aris, peaks []float64
	var g *gen
	var d *daemon
	var rd *reads
	for r := 0; r < serveSetupReps; r++ {
		var err error
		if g, err = generate(titleShape, heldRows, subSeed(subSeed(cfg.seed, tagData), uint64(r))); err != nil {
			return err
		}
		bin := filepath.Join(cfg.dir, fmt.Sprintf("title%d.sspcb", r))
		_, err = binfmt.WriteBinaryFile(bin, g.Train, shardRows)
		res.op(err)
		if err != nil {
			return err
		}
		if d != nil {
			peaks = append(peaks, procStatusMB(d.cmd.Process.Pid, "VmHWM:"))
			d.stop()
		}
		start := time.Now()
		if d, err = startDaemon(cfg.tool("sspcd"), cfg.conns); err != nil {
			return err
		}
		key, err := d.fit(fitRequest{Algo: "sspc", K: classes, DataFile: bin,
			Seed: subSeed(subSeed(cfg.seed, tagFit), uint64(r)), Restarts: 1, Workers: 2})
		res.op(err)
		if err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
		cfg.rec.add(0, "", "sspcd.setup", start, time.Now())
		if rd, err = prepareReads(d, key, g, titleShape.D); err != nil {
			return err
		}
		ari, err := eval.ARI(g.HeldTruth, rd.all)
		if err == nil && ari < serveFloor {
			err = fmt.Errorf("served ARI %.4f is below the floor %.2f", ari, serveFloor)
		}
		res.op(err)
		aris = append(aris, ari)
	}

	share := 1.0
	if cfg.trace {
		share = 0.5
	}
	setupPolls := d.polls.Load()
	wr := startWriter(d, cfg.rec, writeBins, subSeed(cfg.seed, tagWrites))
	steps := readPhase(cfg, res, d, rd, serveRungs, cfg.budget(share))
	wr.finish()
	peaks = append(peaks, procStatusMB(d.cmd.Process.Pid, "VmHWM:"))
	polls := d.polls.Load() - setupPolls
	fmt.Printf("# writes: %d done, %d polls of GET /jobs/{id}, one every %v per write\n", len(wr.times), polls, pollEvery)
	for range wr.times {
		res.op(nil)
	}
	for _, e := range wr.errs {
		res.op(e)
	}
	if len(wr.times) == 0 {
		return fmt.Errorf("no write finished within the run")
	}
	endRead(cfg, res, d, steps)

	if !cfg.trace {
		res.add("setup_s", "s", median(times), fmt.Sprintf("median of %d sspcd starts to first model fitted", len(times)))
		res.add("fit_rss_mb", "MB", median(peaks), fmt.Sprintf("median of %d sspcd peak resident sets (VmHWM)", len(peaks)))
		res.add("fit_s", "s", median(wr.times), fmt.Sprintf("median of %d writes, POST /fit to done, %d polls", len(wr.times), polls))
		res.add("ari", "ratio", median(aris), fmt.Sprintf("median over %d served models, %d held-out rows each", len(aris), len(rd.all)))
		return nil
	}
	labeled := filepath.Join(cfg.dir, "write-labeled.csv")
	if err := writeCSV(labeled, writes[0].Train, writes[0].Truth); err != nil {
		return err
	}
	opts := core.DefaultOptions(classes)
	opts.Seed = subSeed(subSeed(cfg.seed, tagWrites), 0)
	opts.Restarts, opts.Workers = 1, 1
	pc := &probeCase{segs: writeSegs[0], labeled: labeled, opts: opts,
		served: rd.model, batch: g.Held[:batchRows*titleShape.D]}
	return probe(cfg, res, pc, true)
}

// rung is one rate of the /assign ladder and the share of the read time it
// gets.
type rung struct {
	Rate  float64
	Share float64
}

// readPhase drives the /assign ladder against d, one rate after another,
// and counts every request. A traced run records a span per request; an
// untraced one does no tracing work at all.
func readPhase(cfg *config, res *result, d *daemon, rd *reads, rungs []rung, total time.Duration) []step {
	ladder, end := cfg.rec.open(0, "", "loadgen.ladder")
	defer end()
	var steps []step
	for _, g := range rungs {
		id, endStep := cfg.rec.open(ladder, "", fmt.Sprintf("loadgen.step_%g", g.Rate))
		send := func(i int) error { return d.assign(rd, i) }
		if cfg.rec.on {
			rate := g.Rate
			send = func(i int) error {
				start := time.Now()
				err := d.assign(rd, i)
				cfg.rec.add(id, fmt.Sprintf("assign-%g-%d", rate, i), "sspcd.assign", start, time.Now())
				return err
			}
		}
		s := runStep(g.Rate, time.Duration(float64(total)*g.Share), cfg.conns, send)
		endStep()
		res.attempted += len(s.Latencies)
		if s.Failed > 0 {
			res.failed += s.Failed
			res.errs = append(res.errs, fmt.Sprintf("%d of %d /assign requests at %g rps failed or answered wrong", s.Failed, len(s.Latencies), s.Rate))
		}
		steps = append(steps, s)
	}
	return steps
}

// endRead reports the read metrics, stops the daemon and reports its
// memory.
func endRead(cfg *config, res *result, d *daemon, steps []step) {
	models, err := d.modelCount()
	res.op(err)
	rss := procStatusMB(d.cmd.Process.Pid, "VmRSS:")
	d.stop()
	if cfg.trace {
		var late []float64
		backlog := 0
		for _, s := range steps {
			late = append(late, s.Late...)
			for _, b := range s.Backlog {
				if b > backlog {
					backlog = b
				}
			}
		}
		res.add("loadgen.late_ms_p99", "ms", percentile(sorted(late), 99), fmt.Sprintf("%d requests", len(late)))
		res.add("loadgen.backlog_max", "count", float64(backlog), fmt.Sprintf("%d requests", len(late)))
		res.add("sspcd.models", "count", float64(models), "")
		res.add("sspcd.rss_mb", "MB", rss, "")
		return
	}
	for _, s := range steps {
		sum := summarize(s.Latencies)
		fmt.Printf("# %g rps: %d requests, p50 %.2f ms, p%g %.2f ms, late p99 %.2f ms, growing backlog %v\n",
			s.Rate, sum.N, sum.P50, sum.TailLevel, sum.Tail, percentile(sorted(s.Late), 99), growing(s.Backlog))
		if s.Rate != latencyRate {
			continue
		}
		note := fmt.Sprintf("%d requests at %d rps", sum.N, latencyRate)
		res.add("assign_p50_ms", "ms", sum.P50, note)
		v := percentile(sorted(s.Latencies), 99)
		if sum.TailLevel < 99 {
			// Too few samples for a p99: report the highest percentile that
			// has enough samples beyond it, and say so.
			v = sum.Tail
			note += fmt.Sprintf("; p%g, too few samples for p99", sum.TailLevel)
		}
		res.add("assign_p99_ms", "ms", v, note)
	}
	if len(steps) > 1 {
		res.add("assign_max_rps", "1/s", maxRate(steps, limitMs), fmt.Sprintf("%d rungs", len(steps)))
	}
}

// probe runs the per-layer probes for the rest of the run, at least once,
// and reports the median of each over the rounds.
func probe(cfg *config, res *result, pc *probeCase, serving bool) error {
	var rounds []*probeRound
	deadline := time.Now().Add(cfg.budget(0.5))
	for len(rounds) == 0 || time.Now().Before(deadline) {
		r, err := pc.round(cfg.dir, cfg.rec, len(rounds) == 0)
		res.op(err)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
	}
	med := func(f func(*probeRound) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	n := fmt.Sprintf("median of %d rounds", len(rounds))
	res.add("binfmt.convert_s", "s", med(func(r *probeRound) float64 { return r.convert }), n)
	res.add("binfmt.open_s", "s", med(func(r *probeRound) float64 { return r.open }), n)
	res.add("dataset.read_csv_s", "s", med(func(r *probeRound) float64 { return r.readCSV }), n)
	res.add("core.validate_s", "s", med(func(r *probeRound) float64 { return r.validate }), n)
	res.add("core.init_s", "s", med(func(r *probeRound) float64 { return r.init }), n)
	iter := med(func(r *probeRound) float64 { return r.iter })
	res.add("core.iter_s", "s", iter, n)
	res.add("core.iterations", "count", med(func(r *probeRound) float64 { return r.iterations }), n)
	res.add("core.selected_dims", "count", med(func(r *probeRound) float64 { return r.selectedDims }), n)
	mv := med(func(r *probeRound) float64 { return r.medianVector })
	res.add("dataset.median_vector_s", "s", mv, n)
	res.add("dataset.gather_rows_s", "s", med(func(r *probeRound) float64 { return r.gatherRows }), n)
	all := med(func(r *probeRound) float64 { return r.assignAll })
	if serving {
		res.add("core.assign_batch_s", "s", med(func(r *probeRound) float64 { return r.assignBatch }), "one 32-row batch, "+n)
	} else {
		res.add("core.assign_batch_s", "s", all, "all n rows, "+n)
	}
	res.add("core.step4_residual_s", "s", iter-all-mv, "from the medians above")
	res.add("engine.speedup_w2", "ratio", med(func(r *probeRound) float64 { return r.untraced1 / r.untraced2 }), n)
	res.add("model.encode_s", "s", med(func(r *probeRound) float64 { return r.encode }), n)
	res.add("model.decode_s", "s", med(func(r *probeRound) float64 { return r.decode }), n)
	res.add("model.bytes", "bytes", med(func(r *probeRound) float64 { return r.modelBytes }), n)
	res.add("trace.overhead", "ratio", med(func(r *probeRound) float64 { return r.traced2 / r.untraced2 }), n)
	return nil
}

// convert runs datagen -convert and returns its wall time.
func convert(cfg *config, out string, segs []string) (float64, error) {
	start := time.Now()
	wall, err := runCommand(cfg.tool("datagen"), append([]string{"-convert", out}, segs...)...)
	cfg.rec.add(0, "", "datagen.convert", start, time.Now())
	return wall, err
}

// sameData checks that a dataset holds exactly the values of another: the
// converted or re-read rows against the generated ones.
func sameData(got, want *dataset.Dataset) error {
	if got.N() != want.N() || got.D() != want.D() {
		return fmt.Errorf("dataset is %dx%d, want %dx%d", got.N(), got.D(), want.N(), want.D())
	}
	for i := 0; i < want.N(); i++ {
		a, b := got.Row(i), want.Row(i)
		for j := range b {
			if a[j] != b[j] {
				return fmt.Errorf("dataset differs at row %d, column %d", i, j)
			}
		}
	}
	return nil
}

func readKnowledge(path string) (*dataset.Knowledge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ParseKnowledge(f)
}
