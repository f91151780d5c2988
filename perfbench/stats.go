package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPermille lists the percentiles a tail may be reported at, in tenths of
// a percent, highest first.
var tailPermille = []int{999, 990, 980, 950, 900, 750, 500}

// tailLevel returns the highest percentile of tailPermille (in percent) that
// has at least minBeyond of n samples beyond it, or 0 when none has.
func tailLevel(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or NaN when sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, or the mean of the two middle
// values when their count is even.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is a timing distribution as the benchmark reports it: the median,
// and the highest percentile with at least minBeyond samples beyond it.
type summary struct {
	N         int
	P50       float64
	TailLevel float64 // percent; 0 when there are too few samples for a tail
	Tail      float64
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	out := summary{N: len(s), P50: percentile(s, 50), TailLevel: tailLevel(len(s))}
	if out.TailLevel > 0 {
		out.Tail = percentile(s, out.TailLevel)
	}
	return out
}

// step is one rate of the open-loop /assign ladder. Latencies are measured
// from each request's due time, a failed request counting as +Inf; Backlog
// holds the count of due but unsent requests, sampled at every due time.
type step struct {
	Rate      float64
	Latencies []float64
	Late      []float64
	Backlog   []int
	Failed    int
}

// growing reports whether a backlog series shows a queue the server does not
// keep up with: over the last quarter of the step the backlog never drains
// to zero, and it averages more than over the first quarter. A transient
// stall drains again and does not count.
func growing(backlog []int) bool {
	n := len(backlog)
	if n < 4 {
		return false
	}
	first, last := backlog[:n/4], backlog[n-n/4:]
	for _, b := range last {
		if b == 0 {
			return false
		}
	}
	return meanInts(last) > meanInts(first)
}

func meanInts(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// passes reports whether a step meets the latency limit: its 99th
// percentile latency is within limitMs and its backlog is not growing.
func (s step) passes(limitMs float64) bool {
	if len(s.Latencies) == 0 {
		return false
	}
	return percentile(sorted(s.Latencies), 99) <= limitMs && !growing(s.Backlog)
}

// maxRate returns the highest rate among steps that passes the latency
// limit, or 0 when none does.
func maxRate(steps []step, limitMs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if s.Rate > best && s.passes(limitMs) {
			best = s.Rate
		}
	}
	return best
}
