package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/model"
)

// probeCase is the fit a traced run takes apart, layer by layer, through
// the layers' exported functions.
type probeCase struct {
	segs     []string // the dataset as unlabeled CSV segments
	labeled  string   // the dataset as a labeled CSV
	opts     core.Options
	validate bool
	// served, when set, is the model sspcd served in this run; the model
	// probes and a one-batch assign replay then use it.
	served []byte
	batch  []float64
}

// probeRound is one pass over every layer.
type probeRound struct {
	convert, open, readCSV, validate float64
	init, iter                       float64
	iterations, selectedDims         float64
	medianVector, gatherRows         float64
	assignAll, assignBatch           float64
	untraced1, untraced2, traced2    float64
	encode, decode, modelBytes       float64
}

func timed(rec *recorder, parent int, name string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	rec.add(parent, "", name, start, end)
	return end.Sub(start).Seconds(), err
}

func (pc *probeCase) round(dir string, rec *recorder, warm bool) (*probeRound, error) {
	var r probeRound
	root, endRoot := rec.open(0, "", "probe.round")
	defer endRoot()

	bin := filepath.Join(dir, "probe.sspcb")
	var err error
	if r.convert, err = timed(rec, root, "binfmt.convert", func() error {
		_, err := binfmt.ConvertCSV(bin, pc.segs, binfmt.ConvertOptions{ShardRows: shardRows})
		return err
	}); err != nil {
		return nil, err
	}
	var fl *binfmt.File
	if r.open, err = timed(rec, root, "binfmt.open", func() error {
		fl, err = binfmt.OpenBinary(bin)
		return err
	}); err != nil {
		return nil, err
	}
	defer fl.Close()
	var flat *dataset.Dataset
	if r.readCSV, err = timed(rec, root, "dataset.read_csv", func() error {
		f, err := os.Open(pc.labeled)
		if err != nil {
			return err
		}
		defer f.Close()
		flat, _, err = dataset.ReadLabeledCSV(bufio.NewReader(f), false)
		return err
	}); err != nil {
		return nil, err
	}
	// The fit uses the mapped file; the CSV must have read the same values.
	ds := fl.Dataset()
	if err := sameData(flat, ds); err != nil {
		return nil, err
	}

	// Validation runs on every workload, so the ones without knowledge show
	// what it costs when unused.
	opts := pc.opts
	var report *core.KnowledgeReport
	if r.validate, err = timed(rec, root, "core.validate", func() error {
		var err error
		report, err = core.ValidateKnowledge(ds, opts.Knowledge, opts, 0)
		return err
	}); err != nil {
		return nil, err
	}
	if pc.validate {
		opts.Knowledge = report.Apply(opts.Knowledge)
	}

	// The same fit three times: untraced on one worker and on two (the
	// engine's speed-up), then traced on two right after the untraced one
	// (the trace hooks' overhead, and the per-phase timings). All three must
	// agree.
	var fitSpan int
	run := func(workers int, trace *core.Trace) (*cluster.Result, float64, error) {
		o := opts
		o.Workers, o.Trace = workers, trace
		id, end := rec.open(root, "", fmt.Sprintf("core.fit_w%d", workers))
		start := time.Now()
		res, err := core.Run(ds, o)
		wall := time.Since(start).Seconds()
		end()
		fitSpan = id
		return res, wall, err
	}
	if warm {
		// The first fit of a process pays for growing the heap and touching
		// the data; keep it out of the ratios.
		if _, _, err := run(2, nil); err != nil {
			return nil, err
		}
	}
	res1, wall1, err := run(1, nil)
	if err != nil {
		return nil, err
	}
	res2, wall2, err := run(2, nil)
	if err != nil {
		return nil, err
	}
	obs := newObserver()
	start := time.Now()
	rest, wallt, err := run(2, obs.trace())
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(res1.Assignments, res2.Assignments) || !reflect.DeepEqual(rest.Assignments, res2.Assignments) {
		return nil, fmt.Errorf("in-process fits disagree across workers or tracing")
	}
	r.untraced2, r.untraced1, r.traced2 = wall2, wall1, wallt
	r.init, r.iter, r.iterations = obs.phases(rec, fitSpan, start, opts.Restarts, 2)
	for _, dims := range rest.Dims {
		r.selectedDims += float64(len(dims))
	}

	// Replays of the per-iteration kernels on the final clusters.
	members := make([][]int, rest.K)
	for x, c := range rest.Assignments {
		if c != cluster.Outlier {
			members[c] = append(members[c], x)
		}
	}
	r.medianVector, _ = timed(rec, root, "dataset.median_vector", func() error {
		for _, m := range members {
			if len(m) > 0 {
				ds.MedianVector(m)
			}
		}
		return nil
	})
	buf := make([]float64, ds.N()*ds.D())
	r.gatherRows, _ = timed(rec, root, "dataset.gather_rows", func() error {
		for _, m := range members {
			ds.GatherRows(m, buf)
		}
		return nil
	})
	all := make([]int, ds.N())
	for i := range all {
		all[i] = i
	}
	rows := ds.GatherRows(all, buf)
	a, err := core.NewAssigner(ds.D(), rest.Fitted)
	if err != nil {
		return nil, err
	}
	out := make([]int, ds.N())
	if r.assignAll, err = timed(rec, root, "core.assign_batch", func() error {
		return a.AssignBatch(rows, out)
	}); err != nil {
		return nil, err
	}

	// The model layer: the served model when there is one, else this fit's.
	var m *model.Model
	if pc.served != nil {
		m, err = model.Decode(pc.served)
	} else {
		m, err = model.FromResult("sspc", "perfbench", opts.Seed, fl.ContentHash(), ds.D(), rest)
	}
	if err != nil {
		return nil, err
	}
	var enc []byte
	if r.encode, err = timed(rec, root, "model.encode", func() error {
		enc, err = m.Encode()
		return err
	}); err != nil {
		return nil, err
	}
	if r.decode, err = timed(rec, root, "model.decode", func() error {
		m, err = model.Decode(enc)
		return err
	}); err != nil {
		return nil, err
	}
	if pc.served != nil {
		sa, err := m.Assigner()
		if err != nil {
			return nil, err
		}
		bout := make([]int, len(pc.batch)/sa.D())
		if r.assignBatch, err = timed(rec, root, "core.assign_batch32", func() error {
			return sa.AssignBatch(pc.batch, bout)
		}); err != nil {
			return nil, err
		}
	}
	r.modelBytes = float64(len(enc))
	return &r, nil
}

// observer collects trace callback times of one fit. Callbacks arrive
// serialized (core.Trace holds a mutex around them), and the times are read
// only after the fit returns.
type observer struct {
	init  map[int]time.Time
	iters map[int][]time.Time
}

func newObserver() *observer {
	return &observer{init: map[int]time.Time{}, iters: map[int][]time.Time{}}
}

func (o *observer) trace() *core.Trace {
	return &core.Trace{
		OnInit: func(restart int, _ []core.SeedGroupInfo) { o.init[restart] = time.Now() },
		OnIteration: func(st core.IterationStats) {
			o.iters[st.Restart] = append(o.iters[st.Restart], time.Now())
		},
	}
}

// phases returns the median initialization time over restarts, the median
// iteration time and the iteration count, and records restart, init and
// iteration spans under the fit's span. A restart's start is not observable from outside; the
// first min(workers, restarts) restarts start with the fit, and each later
// one when the earliest still-unclaimed restart finished.
func (o *observer) phases(rec *recorder, parent int, start time.Time, restarts, workers int) (initS, iterS, count float64) {
	if restarts < 1 {
		restarts = 1
	}
	slots := workers
	if slots > restarts {
		slots = restarts
	}
	var ends []time.Time
	for _, its := range o.iters {
		if len(its) > 0 {
			ends = append(ends, its[len(its)-1])
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	var inits, gaps []float64
	for r := 0; r < restarts; r++ {
		begin := start
		if r >= slots && r-slots < len(ends) {
			begin = ends[r-slots]
		}
		initAt, ok := o.init[r]
		if !ok {
			continue
		}
		its := o.iters[r]
		last := initAt
		if len(its) > 0 {
			last = its[len(its)-1]
		}
		op := fmt.Sprintf("restart-%d", r)
		id := rec.add(parent, op, "core.restart", begin, last)
		rec.add(id, op, "core.init", begin, initAt)
		inits = append(inits, initAt.Sub(begin).Seconds())
		prev := initAt
		for _, t := range its {
			rec.add(id, op, "core.iter", prev, t)
			gaps = append(gaps, t.Sub(prev).Seconds())
			prev = t
		}
		count += float64(len(its))
	}
	return median(inits), median(gaps), count
}
