package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestTailLevel(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75},
		{100, 90}, {199, 90}, {200, 95}, {499, 95}, {500, 98},
		{999, 98}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSummarizeReportsTailWithTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailLevel != 99 || s.Tail != 990 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990", s)
	}
	// Exactly ten samples lie beyond the reported tail.
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}
	if s := summarize(xs[:500]); s.TailLevel != 98 {
		t.Fatalf("500 samples report p%g, want p98", s.TailLevel)
	}
}

func TestGrowingBacklog(t *testing.T) {
	ramp := make([]int, 100)
	for i := range ramp {
		ramp[i] = i / 2
	}
	stall := make([]int, 100)
	for i := 60; i < 80; i++ {
		stall[i] = 80 - i // a stall that drains before the step ends
	}
	stuck := make([]int, 100)
	for i := range stuck {
		stuck[i] = 3 // queued but not getting longer
	}
	lateStall := make([]int, 100)
	for i := 70; i < 100; i++ {
		lateStall[i] = 1 + (i-70)%3 // still queued when the step ends
	}
	cases := []struct {
		name string
		b    []int
		want bool
	}{
		{"idle", make([]int, 100), false},
		{"ramp", ramp, true},
		{"drained stall", stall, false},
		{"steady queue", stuck, false},
		{"stall at the end", lateStall, true},
		{"too short", []int{0, 5, 9}, false},
	}
	for _, c := range cases {
		if got := growing(c.b); got != c.want {
			t.Errorf("%s: growing = %v, want %v", c.name, got, c.want)
		}
	}
}

func flat(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestMaxRate(t *testing.T) {
	ramp := make([]int, 200)
	for i := range ramp {
		ramp[i] = i
	}
	withFailure := flat(200, 5)
	withFailure[0], withFailure[1], withFailure[2] = math.Inf(1), math.Inf(1), math.Inf(1)
	cases := []struct {
		name  string
		steps []step
		want  float64
	}{
		{"all pass", []step{
			{Rate: 50, Latencies: flat(100, 5)},
			{Rate: 100, Latencies: flat(200, 8)},
		}, 100},
		{"p99 over the limit", []step{
			{Rate: 50, Latencies: flat(100, 5)},
			{Rate: 100, Latencies: flat(200, 60)},
		}, 50},
		{"growing backlog fails whatever the p99", []step{
			{Rate: 50, Latencies: flat(100, 5)},
			{Rate: 100, Latencies: flat(200, 5), Backlog: ramp},
		}, 50},
		{"failed requests miss the limit", []step{
			{Rate: 50, Latencies: flat(100, 5)},
			{Rate: 100, Latencies: withFailure},
		}, 50},
		{"highest passing rate, even above a failing one", []step{
			{Rate: 50, Latencies: flat(100, 5)},
			{Rate: 100, Latencies: flat(200, 70)},
			{Rate: 150, Latencies: flat(300, 9)},
		}, 150},
		{"none passes", []step{{Rate: 50, Latencies: flat(100, 99)}}, 0},
	}
	for _, c := range cases {
		if got := maxRate(c.steps, 50); got != c.want {
			t.Errorf("%s: maxRate = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "fit", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "restart", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "restart", Start: 2, End: 5},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "restart", Start: 8, End: 12}, // runs past its parent
		{ID: 5, Parent: 3, Name: "iter", Start: 2.5, End: 3.5},
		{ID: 6, Name: "other", Start: 0, End: 1},
	}
	got := selfTimes(spans)
	want := map[int]float64{1: 4, 2: 2, 3: 2, 4: 4, 5: 1, 6: 1}
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %g, want %g", id, got[id], w)
		}
	}
	self, count := selfByName(spans)
	if math.Abs(self["restart"]-8) > 1e-12 || count["restart"] != 3 {
		t.Errorf("restart self %g over %d spans, want 8 over 3", self["restart"], count["restart"])
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder(false)
	id, end := r.open(0, "", "x")
	end()
	if id != 0 || r.add(0, "", "y", time.Now(), time.Now()) != 0 || len(r.spans) != 0 {
		t.Fatal("a disabled recorder recorded spans")
	}
	r = newRecorder(true)
	id, end = r.open(0, "op", "x")
	time.Sleep(time.Millisecond)
	end()
	if id != 1 || len(r.spans) != 1 || r.spans[0].dur() <= 0 {
		t.Fatalf("open/close recorded %+v", r.spans)
	}
}

// An open-loop step keeps sending on schedule when the server is slow, so
// the queue shows up as a growing backlog and as latency counted from the
// due time.
func TestRunStepOpenLoop(t *testing.T) {
	slow := runStep(200, 300*time.Millisecond, 1, func(int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if len(slow.Latencies) != 60 || slow.Failed != 0 {
		t.Fatalf("slow step sent %d requests, %d failed; want 60, 0", len(slow.Latencies), slow.Failed)
	}
	if !growing(slow.Backlog) {
		t.Errorf("a server at a quarter of the offered rate should show a growing backlog: %v", slow.Backlog)
	}
	if last := slow.Latencies[len(slow.Latencies)-1]; last < 500 {
		t.Errorf("last request's latency %.1fms should include its wait in the queue", last)
	}
	if slow.passes(limitMs) {
		t.Error("an overloaded step passed")
	}

	fast := runStep(200, 300*time.Millisecond, 1, func(int) error { return nil })
	if growing(fast.Backlog) {
		t.Errorf("an idle server showed a growing backlog: %v", fast.Backlog)
	}
	failing := runStep(100, 100*time.Millisecond, 2, func(i int) error {
		if i%2 == 0 {
			return errTest
		}
		return nil
	})
	if failing.Failed != 5 || !math.IsInf(failing.Latencies[0], 1) {
		t.Errorf("failed %d of %d, first latency %g; want 5 failures counted as +Inf", failing.Failed, len(failing.Latencies), failing.Latencies[0])
	}
}

var errTest = errors.New("test failure")

func TestSubSeedAndPick(t *testing.T) {
	if subSeed(1, tagData) != subSeed(1, tagData) || subSeed(1, tagData) == subSeed(1, tagFit) || subSeed(1, tagData) == subSeed(2, tagData) {
		t.Fatal("subSeed must be deterministic and separate tags and seeds")
	}
	r := &splitmix{s: 7}
	got := r.pick([]int{1, 2, 3, 4, 5, 6, 7, 8}, 5)
	seen := map[int]bool{}
	for _, x := range got {
		if seen[x] || x < 1 || x > 8 {
			t.Fatalf("pick returned %v", got)
		}
		seen[x] = true
	}
	if len(got) != 5 || len(r.pick([]int{1, 2}, 5)) != 2 {
		t.Fatal("pick returned the wrong number of elements")
	}
}

// The metric tables the program reports from must match BENCHMARK.json:
// every gated end-to-end metric and every per-layer metric, in order, with
// the same unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var gated []metricDoc
	for _, m := range endToEnd {
		if m.gated {
			gated = append(gated, m)
		}
	}
	check := func(kind string, docs []metricDoc, listed []struct{ Name, Unit string }) {
		if len(docs) != len(listed) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(docs), len(listed))
		}
		for i, m := range docs {
			if m.name != listed[i].Name || m.unit != listed[i].Unit {
				t.Errorf("%s metric %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, m.name, m.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", gated, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}
