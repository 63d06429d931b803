package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// askResp is the part of a /v1/ask answer the benchmark reads.
type askResp struct {
	Query   int64 `json:"query"`
	Epoch   uint64
	Results []struct {
		Doc   int     `json:"doc"`
		Score float64 `json:"score"`
	} `json:"results"`
	Trace *struct {
		CacheHit bool `json:"cache_hit"`
		Stages   []struct {
			Name string  `json:"name"`
			Us   float64 `json:"us"`
		} `json:"stages"`
		TotalUs float64 `json:"total_us"`
	} `json:"trace"`
}

func (a *askResp) docs() []int {
	out := make([]int, len(a.Results))
	for i, r := range a.Results {
		out[i] = r.Doc
	}
	return out
}

// voteResp mirrors api.VoteResponse with the flush report's fields the
// benchmark reads (the report's JSON carries every exported field).
type voteResp struct {
	Pending int         `json:"pending"`
	Flushed bool        `json:"flushed"`
	Report  *flushStats `json:"report"`
}

type flushStats struct {
	Votes, Encoded, Discarded         int
	Variables, Constraints, Satisfied int
	Outer, InnerIters                 int
	EnumSeconds, JudgeSeconds         float64
	ClusterSeconds, SolveSeconds      float64
	MergeSeconds                      float64
	EnumCacheHits, EnumCacheMisses    uint64
	Partial                           bool
}

// opCount is the accounting of one operation type.
type opCount struct {
	Attempted atomic.Int64
	Succeeded atomic.Int64
	Failed    atomic.Int64
	Shed      atomic.Int64
}

func (c *opCount) record(status int, ok bool) {
	c.Attempted.Add(1)
	switch {
	case ok:
		c.Succeeded.Add(1)
	case status == http.StatusTooManyRequests:
		c.Shed.Add(1)
	default:
		c.Failed.Add(1)
	}
}

// checks collects output-check failures; any failure makes the run
// incorrect. Only the first few messages are kept.
type checks struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.first) < 20 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// epochSeen records, per serving epoch, the earliest time an ask answered
// from it completed — the moment a vote in that epoch became visible.
type epochSeen struct {
	mu    sync.Mutex
	first map[uint64]time.Time
}

func (e *epochSeen) saw(epoch uint64, at time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.first[epoch]; !ok || at.Before(t) {
		e.first[epoch] = at
	}
}

// firstAtOrAfter is the earliest completion of an ask answered from
// epoch ≥ e, and whether any was seen.
func (e *epochSeen) firstAtOrAfter(epoch uint64) (time.Time, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var best time.Time
	found := false
	for ep, t := range e.first {
		if ep >= epoch && (!found || t.Before(best)) {
			best, found = t, true
		}
	}
	return best, found
}

// conn is one client connection. Requests on it are sequential, so the
// epochs it observes must never go backwards.
type conn struct {
	hc        *http.Client
	base      string
	k         int
	lastEpoch uint64
	ops       *opsTable
	chk       *checks
	seen      *epochSeen
}

type opsTable struct{ Ask, Vote, Flush opCount }

func (c *conn) post(path, reqID string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, fmt.Errorf("POST %s: %s", path, resp.Status)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// ask sends one /v1/ask and checks the answer: K results, scores
// non-increasing, epoch not behind the last one this connection saw.
func (c *conn) ask(body []byte, traced bool, reqID string) (*askResp, bool) {
	path := "/v1/ask"
	if traced {
		path += "?trace=1"
	}
	var a askResp
	status, err := c.post(path, reqID, body, &a)
	ok := err == nil
	if ok {
		c.checkAsk(&a)
		c.seen.saw(a.Epoch, time.Now())
	}
	c.ops.Ask.record(status, ok)
	if !ok {
		return nil, false
	}
	return &a, true
}

func (c *conn) checkAsk(a *askResp) {
	if len(a.Results) != c.k {
		c.chk.fail("ask returned %d results, want %d", len(a.Results), c.k)
	}
	for i := 1; i < len(a.Results); i++ {
		if a.Results[i].Score > a.Results[i-1].Score {
			c.chk.fail("ask scores increase at position %d: %v > %v", i, a.Results[i].Score, a.Results[i-1].Score)
			break
		}
	}
	c.observeEpoch(a.Epoch)
}

func (c *conn) observeEpoch(e uint64) {
	if e < c.lastEpoch {
		c.chk.fail("epoch went backwards on one connection: %d after %d", e, c.lastEpoch)
	}
	c.lastEpoch = e
}

type voteReq struct {
	Query   int64 `json:"query"`
	Ranked  []int `json:"ranked"`
	BestDoc int   `json:"best_doc"`
}

func (c *conn) vote(v voteReq, reqID string) (*voteResp, int, bool) {
	body, err := json.Marshal(v)
	if err != nil {
		c.chk.fail("marshal vote: %v", err)
		return nil, 0, false
	}
	var r voteResp
	status, err := c.post("/v1/vote", reqID, body, &r)
	ok := err == nil
	c.ops.Vote.record(status, ok)
	if !ok {
		return nil, status, false
	}
	return &r, status, true
}

func (c *conn) flush() bool {
	var r struct {
		Pending int `json:"pending"`
	}
	status, err := c.post("/v1/flush", "", []byte("{}"), &r)
	ok := err == nil
	c.ops.Flush.record(status, ok)
	if ok && r.Pending != 0 {
		c.chk.fail("votes still pending after a final /v1/flush: %d", r.Pending)
	}
	return ok
}
