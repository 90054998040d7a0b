package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one request's answer.
type outcome uint8

const (
	outOK       outcome = iota // 200 with the expected bytes
	outFailed                  // transport error, unexpected status or wrong bytes
	outRejected                // 429/503 backpressure
)

// sample is one request of an open-loop schedule. Times are offsets from
// the schedule's start. Latency runs from when the request was due, not
// from when it was sent, so a stall also charges the wait it imposed on
// the requests queued behind it.
type sample struct {
	due, sent, done time.Duration
	out             outcome
	hit             bool // answered from the response cache
	bytes           int
}

func (s sample) latencyMs() float64 { return ms(s.done - s.due) }
func (s sample) lateMs() float64    { return ms(s.sent - s.due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sendFunc issues request i and reports its outcome, cache disposition and
// response size.
type sendFunc func(i int) (out outcome, hit bool, bytes int)

// openLoop issues n requests due at a fixed rate from conns sender
// goroutines (one connection each) and returns every request's sample in
// schedule order. A sender takes the next request, sleeps until it is due
// and sends it; when every sender is busy the request waits and is sent
// late. The schedule never slows down because the system does.
func openLoop(rate float64, n, conns int, send sendFunc) []sample {
	out := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if d := due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				s := sample{due: due, sent: time.Since(start)}
				s.out, s.hit, s.bytes = send(i)
				s.done = time.Since(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// loadSummary condenses one open-loop run. Latencies are in ms; a
// percentile that fails the minTail rule is NaN.
type loadSummary struct {
	attempted            int
	ok, failed, rejected int
	p50, p99             float64
	hitP50, missP50      float64
	missP99              float64
	lateP99, finalLate   float64
	bytesPerResp         float64
	latencies            []float64 // sorted
}

func summarize(ss []sample) loadSummary {
	s := loadSummary{attempted: len(ss)}
	var all, hit, miss, late []float64
	var bytes int
	for _, x := range ss {
		late = append(late, x.lateMs())
		switch x.out {
		case outFailed:
			s.failed++
			continue
		case outRejected:
			s.rejected++
			continue
		}
		s.ok++
		bytes += x.bytes
		all = append(all, x.latencyMs())
		if x.hit {
			hit = append(hit, x.latencyMs())
		} else {
			miss = append(miss, x.latencyMs())
		}
	}
	s.latencies = sortedCopy(all)
	s.p50 = reportable(s.latencies, 0.50)
	s.p99 = reportable(s.latencies, 0.99)
	s.hitP50 = reportable(sortedCopy(hit), 0.50)
	miss = sortedCopy(miss)
	s.missP50 = reportable(miss, 0.50)
	s.missP99 = reportable(miss, 0.99)
	s.lateP99 = reportable(sortedCopy(late), 0.99)
	if len(ss) > 0 {
		s.finalLate = ss[len(ss)-1].lateMs()
	}
	if s.ok > 0 {
		s.bytesPerResp = float64(bytes) / float64(s.ok)
	}
	return s
}

// reportable is percentile with the minTail rule folded into a NaN.
func reportable(sorted []float64, q float64) float64 {
	v, ok := percentile(sorted, q)
	if !ok {
		return math.NaN()
	}
	return v
}

// meetsSLO reports whether a rung holds the latency objective: nothing
// failed or was refused (a refused request misses any latency limit), the
// p99 is reportable and within slo, and the generator kept to its
// schedule — the last request went out no later than slo after it was
// due, so no backlog was left growing.
func (s loadSummary) meetsSLO(sloMs float64) bool {
	return s.attempted > 0 && s.failed == 0 && s.rejected == 0 &&
		!math.IsNaN(s.p99) && s.p99 <= sloMs && s.finalLate <= sloMs
}

// climb runs the rate ladder in ascending order and returns the highest
// rate of the passing prefix: a rung passes when one of up to attempts
// runs at its rate meets the objective, so a single burst of load from
// elsewhere on the host does not end the climb; the climb stops at the
// first rung that fails every attempt, and a later rung is never run. 0
// when the first rung already fails.
func climb(rates []float64, sloMs float64, attempts int, run func(rate float64) loadSummary) (best float64, rungs []loadSummary) {
	for _, r := range rates {
		passed := false
		for a := 0; a < attempts && !passed; a++ {
			s := run(r)
			rungs = append(rungs, s)
			passed = s.meetsSLO(sloMs)
		}
		if !passed {
			break
		}
		best = r
	}
	return best, rungs
}

// ladder returns rates from lo up to at most hi, each step ratio apart.
func ladder(lo, hi, ratio float64) []float64 {
	var rs []float64
	for r := lo; r <= hi*(1+1e-9); r *= ratio {
		rs = append(rs, math.Round(r))
	}
	return rs
}
