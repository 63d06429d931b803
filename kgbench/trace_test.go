package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add(0, "r1", "op.ask", at(0), at(20))
	call := tr.add(root, "r1", "http.ask", at(2), at(12))
	// Overlapping stages [3,6] and [5,8] cover 5ms; [11,14] is clipped
	// to the call's end at 12, covering 1ms more.
	tr.add(call, "r1", "core.rank", at(3), at(6))
	tr.add(call, "r1", "qa.seed", at(5), at(8))
	tr.add(call, "r1", "qa.resolve", at(11), at(14))
	// A second operation with one unbroken child.
	root2 := tr.add(0, "r2", "op.ask", at(30), at(34))
	tr.add(root2, "r2", "http.ask", at(30), at(34))

	got := selfTimes(tr.spans)
	want := map[string]time.Duration{
		"op.ask":     (20 - 10) * time.Millisecond, // r2's root is fully covered
		"http.ask":   (10-6)*time.Millisecond + 4*time.Millisecond,
		"core.rank":  3 * time.Millisecond,
		"qa.seed":    3 * time.Millisecond,
		"qa.resolve": 3 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestAddStagesLaysStagesEndToEnd(t *testing.T) {
	t0 := time.Unix(0, 0)
	tr := &tracer{}
	call := tr.add(0, "v1", "http.vote", t0, t0.Add(10*time.Millisecond))
	tr.addStages(call, "v1", t0, []stageTime{{"core.enum", time.Millisecond}, {"core.solve", 6 * time.Millisecond}})
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	solve := tr.spans[2]
	if !solve.Start.Equal(t0.Add(time.Millisecond)) || !solve.End.Equal(t0.Add(7*time.Millisecond)) {
		t.Errorf("solve span [%v, %v], want [1ms, 7ms]", solve.Start.Sub(t0), solve.End.Sub(t0))
	}
	if got := selfTimes(tr.spans)["http.vote"]; got != 3*time.Millisecond {
		t.Errorf("vote call self time %v, want 3ms", got)
	}
	var nilTracer *tracer
	if id := nilTracer.add(0, "x", "y", t0, t0); id != 0 {
		t.Error("a nil tracer must record nothing")
	}
}
