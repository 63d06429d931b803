package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one generated
// operation share its request ID (the X-Request-ID the generator sends).
// The tree has three levels: the operation (root), its HTTP call
// (child), and the stage timings the program reports for that call
// (grandchildren).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a root
	Req    string    `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so the untraced run pays no cost.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID (0 on a nil tracer).
func (t *tracer) add(parent int, req, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// setEnd moves a recorded span's end (a root whose operation outlived the
// first call it made).
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// addStages records program-reported stage durations under parent. The
// program reports how long each stage took, not when it started, so the
// stages are laid end to end from the parent's start.
func (t *tracer) addStages(parent int, req string, start time.Time, stages []stageTime) {
	if t == nil {
		return
	}
	at := start
	for _, st := range stages {
		end := at.Add(st.D)
		t.add(parent, req, st.Name, at, end)
		at = end
	}
}

type stageTime struct {
	Name string
	D    time.Duration
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time of every span
// with that name: its duration minus the part of its interval that its
// children cover (overlapping children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
