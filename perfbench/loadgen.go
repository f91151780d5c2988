package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc sends request i and checks its answer. It returns an error for a
// request that failed or came back wrong.
type sendFunc func(i int) error

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runStep drives one open-loop step at rate requests per second for dur.
// Request i is due at start + i/rate whatever happened to earlier requests;
// it waits in a queue until one of conns senders is free. Latency and
// lateness are measured from the due time, so a stall also charges the
// requests queued behind it.
func runStep(rate float64, dur time.Duration, conns int, send sendFunc) step {
	total := int(rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	res := step{
		Rate:      rate,
		Latencies: make([]float64, total),
		Late:      make([]float64, total),
		Backlog:   make([]int, total),
	}
	due := make([]time.Time, total)
	failed := make([]bool, total)
	// Sized to the number of sends, so the dispatcher never blocks and every
	// request goes out on schedule or queues visibly.
	queue := make(chan int, total)
	var started atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				res.Late[i] = ms(time.Since(due[i]))
				if err := send(i); err != nil {
					failed[i] = true
					res.Latencies[i] = math.Inf(1)
					continue
				}
				res.Latencies[i] = ms(time.Since(due[i]))
			}
		}()
	}
	interval := float64(time.Second) / rate
	start := time.Now()
	for i := 0; i < total; i++ {
		due[i] = start.Add(time.Duration(float64(i) * interval))
		time.Sleep(time.Until(due[i]))
		res.Backlog[i] = i - int(started.Load())
		queue <- i
	}
	close(queue)
	wg.Wait()
	for _, f := range failed {
		if f {
			res.Failed++
		}
	}
	return res
}
