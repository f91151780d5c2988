package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, timed by the benchmark around the call.
// Spans of one operation share its Op identifier; Parent is the span that
// caused this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     string  `json:"op,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A disabled recorder
// records nothing and returns span identifier 0.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// add records a finished span and returns its identifier.
func (r *recorder) add(parent int, op, name string, start, end time.Time) int {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds()})
	return id
}

// open records a span that starts now and is closed by the returned func.
// The span's identifier is known before it closes, so children can name it.
func (r *recorder) open(parent int, op, name string) (int, func()) {
	if !r.on {
		return 0, func() {}
	}
	start := time.Now()
	id := r.add(parent, op, name, start, start)
	return id, func() {
		r.mu.Lock()
		r.spans[id-1].End = time.Since(r.t0).Seconds()
		r.mu.Unlock()
	}
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (concurrent
// restarts, say) count once.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, children []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, curLo, curHi := 0.0, 0.0, 0.0
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time and counts spans per span name.
func selfByName(spans []span) (self map[string]float64, count map[string]int) {
	st := selfTimes(spans)
	self, count = map[string]float64{}, map[string]int{}
	for _, s := range spans {
		self[s.Name] += st[s.ID]
		count[s.Name]++
	}
	return self, count
}

// write saves the recorded spans as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
