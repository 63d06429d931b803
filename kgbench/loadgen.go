package main

import (
	"sync"
	"time"
)

// clock is the load generator's time source; tests substitute a fake one
// so due-time accounting can be checked without sleeping.
type clock interface {
	Now() time.Time
	// SleepUntil blocks until t (returning at once if t has passed).
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sample is one generated operation. Latency is measured from when the
// operation was due, not from when it was sent, so a stall that delays
// later sends is charged to every operation it delayed.
type sample struct {
	Due, Start, End time.Time
	// OK reports a well-formed success; a refused, failed or never-sent
	// operation is not OK and counts as missing any latency limit.
	OK bool
	// Sent is false for operations the generator abandoned because it had
	// fallen too far behind (see openLoop.abandonLate).
	Sent bool
}

func (s sample) latency() time.Duration { return s.End.Sub(s.Due) }
func (s sample) late() time.Duration    { return s.Start.Sub(s.Due) }

// openLoop sends operations on a fixed schedule regardless of how fast
// the system answers: operation i is due at start + i/rate. Workers
// goroutines (one connection each) take the next due operation in order;
// when all are busy, due operations wait and their latency grows.
type openLoop struct {
	clk     clock
	rate    float64 // operations per second
	dur     time.Duration
	workers int
	// abandonLate, when positive, stops the run once an operation would
	// start this late: the backlog is growing without bound and every
	// remaining due operation is recorded as failed and unsent.
	abandonLate time.Duration
}

// run executes the schedule from start; send performs operation i, due
// at due, on worker w and reports success. Samples are returned in due
// order.
func (o openLoop) run(start time.Time, send func(w, i int, due time.Time) bool) []sample {
	n := int(o.rate * o.dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / o.rate)
	out := make([]sample, n)
	for i := range out {
		out[i].Due = start.Add(time.Duration(i) * interval)
	}
	var (
		mu        sync.Mutex
		next      int
		abandoned bool
		wg        sync.WaitGroup
	)
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || abandoned {
			return -1
		}
		i := next
		next++
		return i
	}
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := take(); i >= 0; i = take() {
				o.clk.SleepUntil(out[i].Due)
				now := o.clk.Now()
				if o.abandonLate > 0 && now.Sub(out[i].Due) > o.abandonLate {
					mu.Lock()
					abandoned = true
					mu.Unlock()
					out[i].Start, out[i].End = now, now
					continue
				}
				out[i].Start = now
				out[i].OK = send(w, i, out[i].Due)
				out[i].Sent = true
				out[i].End = o.clk.Now()
			}
		}(w)
	}
	wg.Wait()
	// Operations never taken after abandonment were due but not sent;
	// they stay failed, and summarize counts them as misses.
	end := o.clk.Now()
	for i := range out {
		if out[i].Start.IsZero() {
			t := end
			if out[i].Due.After(t) {
				t = out[i].Due
			}
			out[i].Start, out[i].End = t, t
		}
	}
	return out
}

// windowStats summarizes one open-loop window against a latency limit.
type windowStats struct {
	Rate      float64 `json:"rate"`
	Due       int     `json:"due"`
	Good      int     `json:"good"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	LateP99ms float64 `json:"late_p99_ms"`
	// EndLateMS is how late the last due operation started: a backlog
	// still growing at the end of the window.
	EndLateMS float64 `json:"end_late_ms"`
	Pass      bool    `json:"pass"`
}

// summarize scores samples against limit: an operation is good when it
// succeeded within limit of its due time. A window passes when its p99
// latency meets the limit and the generator ended no later than the
// limit behind schedule.
func summarize(rate float64, ss []sample, limit time.Duration) windowStats {
	w := windowStats{Rate: rate, Due: len(ss)}
	if len(ss) == 0 {
		return w
	}
	lat := make([]float64, len(ss))
	late := make([]float64, len(ss))
	for i, s := range ss {
		l := s.latency()
		if !s.OK {
			// A failed operation never got its answer: it misses the
			// limit whatever its round trip was.
			l = max(l, limit+time.Nanosecond)
		}
		lat[i] = ms(l)
		late[i] = ms(s.late())
		if s.OK && l <= limit {
			w.Good++
		}
	}
	w.P50ms = quantile(lat, 0.5)
	w.P99ms = quantile(lat, 0.99)
	w.LateP99ms = quantile(late, 0.99)
	w.EndLateMS = late[len(late)-1]
	limitMS := ms(limit)
	w.Pass = w.P99ms <= limitMS && w.EndLateMS <= limitMS
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
