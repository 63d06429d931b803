package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to: sleeping jumps to the wake time,
// and a request's service time is added by the send function.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) SleepUntil(t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.After(f.now) {
		f.now = t
	}
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func msf(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }

// A stall charges every operation it delays: latency runs from due time,
// so the requests queued behind a slow one are late even though each
// took 0.2 ms to serve.
func TestOpenLoopTimesFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	service := []float64{0.2, 3.5, 0.2, 0.2, 0.2}
	ol := openLoop{clk: clk, rate: 1000, dur: 5 * time.Millisecond, workers: 1}
	ss := ol.run(t0, func(_, i int, due time.Time) bool {
		if want := t0.Add(time.Duration(i) * time.Millisecond); !due.Equal(want) {
			t.Errorf("op %d due %v, want %v", i, due.Sub(t0), want.Sub(t0))
		}
		clk.advance(msf(service[i]))
		return true
	})
	if len(ss) != 5 {
		t.Fatalf("%d samples, want 5", len(ss))
	}
	wantLat := []float64{0.2, 3.5, 2.7, 1.9, 1.1}
	wantLate := []float64{0, 0, 2.5, 1.7, 0.9}
	for i, s := range ss {
		if got := ms(s.latency()); math.Abs(got-wantLat[i]) > 1e-9 {
			t.Errorf("op %d latency %.3fms, want %.3fms", i, got, wantLat[i])
		}
		if got := ms(s.late()); math.Abs(got-wantLate[i]) > 1e-9 {
			t.Errorf("op %d late %.3fms, want %.3fms", i, got, wantLate[i])
		}
	}
	w := summarize(1000, ss, 2*time.Millisecond)
	if w.Good != 3 {
		t.Errorf("good = %d, want 3 (ops 0, 3, 4 within 2ms of due)", w.Good)
	}
	if w.Pass {
		t.Error("window with p99 3.5ms passed a 2ms limit")
	}
	if math.Abs(w.EndLateMS-0.9) > 1e-9 {
		t.Errorf("end late %.3fms, want 0.9", w.EndLateMS)
	}
}

// A failed operation misses the limit however fast it failed.
func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	t0 := time.Unix(0, 0)
	fast := t0.Add(msf(0.1))
	ss := []sample{
		{Due: t0, Start: t0, End: fast, OK: true, Sent: true},
		{Due: t0, Start: t0, End: fast, OK: false, Sent: true},
		{Due: t0, Start: t0, End: fast, OK: false, Sent: true},
	}
	w := summarize(1, ss, time.Millisecond)
	if w.Good != 1 {
		t.Errorf("good = %d, want 1", w.Good)
	}
	if w.P50ms <= 1 {
		t.Errorf("p50 %.3fms with two of three failed: failures must count as over the 1ms limit", w.P50ms)
	}
}

// Once the generator falls abandonLate behind, the remaining operations
// are recorded as due, unsent and failed instead of being sent late.
func TestOpenLoopAbandonsGrowingBacklog(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	ol := openLoop{clk: clk, rate: 1000, dur: 6 * time.Millisecond, workers: 1, abandonLate: 2 * time.Millisecond}
	sent := 0
	ss := ol.run(t0, func(_, i int, _ time.Time) bool {
		sent++
		clk.advance(4 * time.Millisecond) // every request takes 4ms: backlog grows
		return true
	})
	// Op 0 ends at 4ms; op 1 (due 1ms) starts 3ms late > 2ms: abandoned.
	if sent != 1 {
		t.Errorf("sent %d operations, want 1", sent)
	}
	for i, s := range ss[1:] {
		if s.Sent || s.OK {
			t.Errorf("op %d after abandonment: sent=%v ok=%v", i+1, s.Sent, s.OK)
		}
		if s.latency() < 0 {
			t.Errorf("op %d after abandonment has negative latency %v", i+1, s.latency())
		}
	}
	if w := summarize(1000, ss, 2*time.Millisecond); w.Good != 0 || w.Pass {
		t.Errorf("abandoned window: good=%d pass=%v, want 0 and false", w.Good, w.Pass)
	}
}
