package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"kgvote/internal/admit"
	"kgvote/internal/core"
	"kgvote/internal/qa"
	"kgvote/internal/server"
	"kgvote/internal/sgp"
)

// timedSolver wraps the in-process cluster solver and records how long
// each program's solve took; the rest of the report's solve stage is
// encoding.
type timedSolver struct {
	inner core.ClusterSolver
	mu    sync.Mutex
	calls []float64 // seconds per SolveProgram call
}

func (t *timedSolver) SolveProgram(ctx context.Context, p *sgp.Program, params sgp.Params) (*sgp.Solution, error) {
	start := time.Now()
	sol, err := t.inner.SolveProgram(ctx, p, params)
	d := time.Since(start).Seconds()
	t.mu.Lock()
	t.calls = append(t.calls, d)
	t.mu.Unlock()
	return sol, err
}

func (t *timedSolver) take() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.calls
	t.calls = nil
	return out
}

// replayFlush is one flush of the in-process replay.
type replayFlush struct {
	Report  flushStats
	SolveS  float64 // inside the cluster solver
	EncodeS float64 // the report's solve stage minus the solver call
}

// replay feeds the votes a pass sent, in order, to an in-process server
// built exactly as kgvoted builds its own (same corpus, engine options,
// batch and solver), with a timing wrapper installed around the cluster
// solver. It checks that every flush happens where the daemon's did and
// that the held-out rankings afterwards are bitwise equal to the
// daemon's, and returns per-flush encode/solve timings.
func replay(in *inputs, sp *spec, res *passResult, chk *checks) ([]replayFlush, error) {
	f, err := os.Open(in.corpusPath)
	if err != nil {
		return nil, err
	}
	corpus, err := qa.ReadCorpus(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	// kgvoted's defaults: -k 10 -l 4 -workers GOMAXPROCS -scorer enum.
	sys, err := qa.Build(corpus, core.Options{K: sp.K, L: 4, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	ts := &timedSolver{inner: core.LocalSolver()}
	sys.Engine.SetClusterSolver(ts)
	srv, err := server.NewWithOptions(sys, server.Options{
		BatchSize:       sp.Batch,
		Solver:          core.StreamMulti,
		CheckpointEvery: 16,
		Admission:       admit.Config{Capacity: 4096},
		FlushTimeout:    10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	call := func(path string, body []byte, out any) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return json.Unmarshal(rec.Body.Bytes(), out)
	}
	var flushes []replayFlush
	for i, v := range res.Votes {
		if !v.OK {
			continue
		}
		var a askResp
		if err := call("/v1/ask", v.AskBody, &a); err != nil {
			return nil, err
		}
		if !sameInts(a.docs(), v.Ranked) {
			chk.fail("replay: ask before vote %d ranked %v, daemon ranked %v", i, a.docs(), v.Ranked)
		}
		body, err := json.Marshal(voteReq{Query: a.Query, Ranked: v.Ranked, BestDoc: v.Best})
		if err != nil {
			return nil, err
		}
		var r voteResp
		if err := call("/v1/vote", body, &r); err != nil {
			return nil, err
		}
		if r.Flushed != v.Flushed {
			chk.fail("replay: vote %d flushed=%v, daemon flushed=%v", i, r.Flushed, v.Flushed)
		}
		calls := ts.take()
		if r.Report == nil {
			continue
		}
		rf := replayFlush{Report: *r.Report}
		for _, s := range calls {
			rf.SolveS += s
		}
		rf.EncodeS = r.Report.SolveSeconds - rf.SolveS
		flushes = append(flushes, rf)
	}
	for i, b := range in.heldBody {
		var a askResp
		if err := call("/v1/ask", b, &a); err != nil {
			return nil, err
		}
		if !bitwiseEqual(&a, res.HeldAfter[i]) {
			chk.fail("replay: held-out question %d ranks differ from the daemon's", i)
		}
	}
	return flushes, nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bitwiseEqual compares two rankings document by document and score bit
// by bit (JSON carries float64s exactly).
func bitwiseEqual(a, b *askResp) bool {
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i].Doc != b.Results[i].Doc ||
			math.Float64bits(a.Results[i].Score) != math.Float64bits(b.Results[i].Score) {
			return false
		}
	}
	return true
}
