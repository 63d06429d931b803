package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// voteRec is one vote the generator sent.
type voteRec struct {
	Send, End time.Time
	Due       time.Time
	OK        bool
	// Ordinal is the vote's position in kgvoted's acceptance order
	// (votes_accepted right after it was accepted).
	Ordinal int
	Flushed bool
	Report  *flushStats
	// What was sent, for the in-process replay.
	AskBody []byte
	Ranked  []int
	Best    int
}

// monSample is one /v1/stats poll.
type monSample struct {
	Epoch             uint64
	Accepted, Pending int
	Flushes           int
	// Stages are kgvoted's cumulative flush stage seconds: enum, judge,
	// cluster, solve, merge.
	Stages [5]float64
}

// askTrace is the inline stage report of one traced ask.
type askTrace struct {
	RTTus, TotalUs float64
	Stages         map[string]float64
	CacheHit       bool
}

// passResult is everything one pass over a workload recorded.
type passResult struct {
	Setups     []float64
	PeakRSSMB  float64
	Fixed      []sample
	Ladder     []windowStats
	MaxQPS     float64
	Censored   bool
	Votes      []voteRec
	VoterWall  time.Duration
	Consumed   int
	Mon        []monSample
	Seen       *epochSeen
	HeldBefore []*askResp
	HeldAfter  []*askResp
	First      *scrape
	Last       *scrape
	AskTraces  []askTrace
	Ops        *opsTable
	Wall       time.Duration
}

// pass runs one workload once against a freshly booted kgvoted.
type pass struct {
	sp     *spec
	ws     workloadSpec
	in     *inputs
	bin    string
	dir    string
	secs   float64
	traced bool
	tr     *tracer
	chk    *checks
	d      *daemon
	res    *passResult
	askIdx atomic.Int64
	mu     sync.Mutex // guards res.AskTraces
	// accepted counts the votes kgvoted accepted; only the voter
	// goroutine touches it (and res.Votes).
	accepted int
}

func (p *pass) daemonArgs(dataDir string) []string {
	args := []string{
		"-corpus", p.in.corpusPath,
		"-batch", strconv.Itoa(p.sp.Batch),
		"-data-dir", dataDir,
	}
	if p.ws.AsyncFlush {
		args = append(args, "-async-flush")
	}
	return args
}

// boot starts kgvoted. An untraced pass boots it setup_boots times, each
// on a fresh data directory, to time setup_s; the last boot is the one
// measured.
func (p *pass) boot() error {
	boots := 1
	if !p.traced {
		boots = p.sp.SetupBoots
	}
	for i := 0; i < boots; i++ {
		dataDir := filepath.Join(p.dir, fmt.Sprintf("data-%d", i))
		if err := os.RemoveAll(dataDir); err != nil {
			return err
		}
		d, took, err := startDaemon(p.bin, p.daemonArgs(dataDir), filepath.Join(p.dir, fmt.Sprintf("kgvoted-%d.log", i)))
		if err != nil {
			return err
		}
		p.res.Setups = append(p.res.Setups, took.Seconds())
		if i < boots-1 {
			if err := d.stop(); err != nil {
				return fmt.Errorf("stopping setup boot: %w", err)
			}
			continue
		}
		p.d = d
	}
	return nil
}

func (p *pass) newConn(seen *epochSeen) *conn {
	return &conn{hc: newConn(), base: p.d.base, k: p.sp.K, ops: p.res.Ops, chk: p.chk, seen: seen}
}

func (p *pass) dur(share float64) time.Duration {
	return time.Duration(share * p.secs * float64(time.Second))
}

// run executes the workload's phases and returns what they recorded.
func (p *pass) run() (res *passResult, err error) {
	p.res = &passResult{Ops: &opsTable{}, Seen: &epochSeen{first: map[uint64]time.Time{}}}
	if err := p.boot(); err != nil {
		return nil, err
	}
	defer func() {
		if serr := p.d.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping kgvoted: %w", serr)
		}
	}()
	res = p.res
	ctl := p.newConn(res.Seen)
	if res.HeldBefore, err = p.heldOut(ctl); err != nil {
		return nil, err
	}
	if res.First, err = p.d.scrape(ctl.hc); err != nil {
		return nil, err
	}
	stopMon := p.monitor()
	defer stopMon()
	t0 := time.Now()

	workers := maxWorkers()
	var wg sync.WaitGroup
	voter := func() {
		defer wg.Done()
		vc := p.newConn(res.Seen)
		start := time.Now()
		before := p.consumed(vc)
		if p.ws.Voter == "open" {
			p.openVoter(vc, p.dur(p.ws.Phases.Voter))
		} else {
			p.closedVoter(vc, start.Add(p.dur(p.ws.Phases.Voter)))
		}
		res.VoterWall = time.Since(start)
		res.Consumed = p.consumed(vc) - before
	}
	askConns := func(n int) []*conn {
		cs := make([]*conn, max(n, 1))
		for i := range cs {
			cs[i] = p.newConn(res.Seen)
		}
		return cs
	}
	wg.Add(1)
	var conns []*conn
	if p.ws.Concurrent {
		// The fixed-rate asks run beside the voter, which holds one of
		// the sending connections.
		go voter()
		conns = askConns(workers - 1)
	} else {
		// Feedback first and alone; the fixed-rate asks follow on the
		// re-weighted graph with no flush running.
		voter()
		conns = askConns(workers)
	}
	res.Fixed = p.askWindow(conns, p.sp.AskRate, p.dur(p.ws.Phases.AskFixed), 0)
	wg.Wait()
	if p.ws.AsyncFlush {
		// Everything admitted must be accounted for and flushable.
		if !ctl.flush() {
			p.chk.fail("final /v1/flush failed")
		}
	}
	// Peak memory is read before the ladder: how far the ladder climbs
	// varies from run to run, and with it how many asks kgvoted keeps
	// handles for.
	if res.PeakRSSMB, err = p.d.peakRSSMB(); err != nil {
		return nil, err
	}
	// The ladder runs with feedback stopped and every sending
	// connection, so it measures serving capacity alone.
	res.Ladder, res.MaxQPS, res.Censored = p.ladder(askConns(workers), p.dur(p.ws.Phases.Ladder))
	res.Wall = time.Since(t0)
	// The held-out asks also reveal the last flush's epoch to the
	// visibility accounting, so the monitor stops after them.
	if res.HeldAfter, err = p.heldOut(ctl); err != nil {
		return nil, err
	}
	stopMon()
	if res.Last, err = p.d.scrape(ctl.hc); err != nil {
		return nil, err
	}
	p.checkAccepted()
	return res, nil
}

// maxWorkers is how many sending connections the generator may use: one
// per CPU, so the load generator cannot outnumber the cores it shares
// with kgvoted.
func maxWorkers() int { return max(1, runtime.NumCPU()) }

// consumed is how many accepted votes flushes have taken so far.
func (p *pass) consumed(c *conn) int {
	var st struct {
		Serving struct {
			Accepted int `json:"votes_accepted"`
			Pending  int `json:"votes_pending"`
		} `json:"serving"`
	}
	if err := getJSON(c.hc, p.d.base+"/v1/stats", &st); err != nil {
		p.chk.fail("stats: %v", err)
		return 0
	}
	return st.Serving.Accepted - st.Serving.Pending
}

// checkAccepted verifies that kgvoted accepted exactly the votes sent
// minus those it shed, and (async workloads, after the final flush) that
// none were left pending.
func (p *pass) checkAccepted() {
	sent := p.res.Ops.Vote.Attempted.Load()
	shed := p.res.Ops.Vote.Shed.Load()
	got := p.res.Last.Stats.Serving.VotesAccepted - p.res.First.Stats.Serving.VotesAccepted
	if int64(got) != sent-shed {
		p.chk.fail("votes_accepted %d, want %d sent − %d shed", got, sent, shed)
	}
	if p.ws.AsyncFlush && p.res.Last.Stats.Serving.VotesPending != 0 {
		p.chk.fail("%d votes pending after the final flush", p.res.Last.Stats.Serving.VotesPending)
	}
}

// heldOut asks every held-out question once, sequentially.
func (p *pass) heldOut(c *conn) ([]*askResp, error) {
	out := make([]*askResp, len(p.in.heldBody))
	for i, b := range p.in.heldBody {
		a, ok := c.ask(b, false, "")
		if !ok {
			return nil, fmt.Errorf("held-out ask %d failed", i)
		}
		out[i] = a
	}
	return out, nil
}

// monitor polls /v1/stats until the returned stop is called (stopping
// twice is harmless). The polls locate the epoch each vote was flushed
// into.
func (p *pass) monitor() (stop func()) {
	c := p.newConn(p.res.Seen)
	done := make(chan struct{})
	exited := make(chan struct{})
	every := time.Duration(p.sp.StatsPollMS) * time.Millisecond
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			var st struct {
				Serving struct {
					Accepted int    `json:"votes_accepted"`
					Pending  int    `json:"votes_pending"`
					Flushes  int    `json:"flushes"`
					Epoch    uint64 `json:"epoch"`
				} `json:"serving"`
				Flush *struct {
					Enum    float64 `json:"enum_seconds"`
					Judge   float64 `json:"judge_seconds"`
					Cluster float64 `json:"cluster_seconds"`
					Solve   float64 `json:"solve_seconds"`
					Merge   float64 `json:"merge_seconds"`
				} `json:"flush"`
			}
			if err := getJSON(c.hc, p.d.base+"/v1/stats", &st); err != nil {
				p.chk.fail("stats poll: %v", err)
			} else {
				c.observeEpoch(st.Serving.Epoch)
				m := monSample{Epoch: st.Serving.Epoch, Accepted: st.Serving.Accepted,
					Pending: st.Serving.Pending, Flushes: st.Serving.Flushes}
				if f := st.Flush; f != nil {
					m.Stages = [5]float64{f.Enum, f.Judge, f.Cluster, f.Solve, f.Merge}
				}
				p.res.Mon = append(p.res.Mon, m)
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// askWindow runs open-loop asks at rate for d over conns.
func (p *pass) askWindow(conns []*conn, rate float64, d time.Duration, abandon time.Duration) []sample {
	if d <= 0 || rate <= 0 {
		return nil
	}
	ol := openLoop{clk: wallClock{}, rate: rate, dur: d, workers: len(conns), abandonLate: abandon}
	return ol.run(time.Now(), func(w, _ int, due time.Time) bool {
		idx := p.askIdx.Add(1) - 1
		body := p.in.askBodies[p.in.askSeq[idx%int64(len(p.in.askSeq))]]
		return p.tracedAsk(conns[w], body, "a"+strconv.FormatInt(idx, 10), due)
	})
}

// tracedAsk sends one ask; in the traced pass it also records the span
// tree (operation → HTTP call → stages kgvoted reports).
func (p *pass) tracedAsk(c *conn, body []byte, reqID string, due time.Time) bool {
	if !p.traced {
		_, ok := c.ask(body, false, "")
		return ok
	}
	start := time.Now()
	a, ok := c.ask(body, true, reqID)
	end := time.Now()
	root := p.tr.add(0, reqID, "op.ask", due, end)
	call := p.tr.add(root, reqID, "http.ask", start, end)
	if !ok || a.Trace == nil {
		return ok
	}
	at := askTrace{RTTus: float64(end.Sub(start)) / 1e3, TotalUs: a.Trace.TotalUs,
		Stages: map[string]float64{}, CacheHit: a.Trace.CacheHit}
	var stages []stageTime
	for _, st := range a.Trace.Stages {
		at.Stages[st.Name] += st.Us
		stages = append(stages, stageTime{Name: askStageSpan[st.Name], D: time.Duration(st.Us * 1e3)})
	}
	p.tr.addStages(call, reqID, start, stages)
	p.mu.Lock()
	p.res.AskTraces = append(p.res.AskTraces, at)
	p.mu.Unlock()
	return ok
}

// askStageSpan names kgvoted's ?trace=1 ask stages after the module that
// runs them.
var askStageSpan = map[string]string{"seed": "qa.seed", "rank": "core.rank", "resolve": "qa.resolve"}

// ladder raises the open-loop ask rate until a rate misses the p99 limit
// or leaves a growing backlog on every one of its attempts: coarse steps
// first, then fine steps from the last passing rate. It returns every
// step, the highest passing rate, and whether the budget ran out before
// any rate failed (the true limit then lies higher).
func (p *pass) ladder(conns []*conn, budget time.Duration) ([]windowStats, float64, bool) {
	if budget <= 0 {
		return nil, 0, false
	}
	L := p.sp.Ladder
	step := time.Duration(L.StepMS) * time.Millisecond
	abandon := time.Duration(L.AbandonLateMS) * time.Millisecond
	deadline := time.Now().Add(budget)
	rate, ratio := L.StartRate, L.CoarseRatio
	var (
		steps []windowStats
		best  float64
		fails int
		fine  bool
	)
	for time.Now().Add(step).Before(deadline) {
		w := summarize(rate, p.askWindow(conns, rate, step, abandon), p.sp.askLimit())
		steps = append(steps, w)
		switch {
		case w.Pass:
			best = max(best, rate)
			fails = 0
			rate *= ratio
		case fails+1 < L.Attempts:
			fails++ // try the same rate again
		case best == 0:
			// The starting rate fails: step down until one passes.
			fails = 0
			rate /= L.CoarseRatio
		case !fine:
			fine, ratio, fails = true, L.FineRatio, 0
			rate = best * ratio
		default:
			return steps, best, false
		}
	}
	return steps, best, !fine
}

// closedVoter runs ask→vote cycles until the deadline.
func (p *pass) closedVoter(c *conn, until time.Time) {
	for qi := 0; time.Now().Before(until); qi++ {
		p.voteCycle(c, qi, time.Now())
	}
}

// openVoter runs ask→vote cycles on a fixed schedule, one connection.
func (p *pass) openVoter(c *conn, d time.Duration) {
	ol := openLoop{clk: wallClock{}, rate: p.ws.VoteRate, dur: d, workers: 1}
	ol.run(time.Now(), func(_, i int, due time.Time) bool {
		return p.voteCycle(c, i, due)
	})
}

// voteCycle is one ground-truth voter's turn: ask the bank's next
// question, vote for its true best document when it is in the list, and
// otherwise walk away.
func (p *pass) voteCycle(c *conn, qi int, due time.Time) bool {
	q := p.in.voterQs[qi%len(p.in.voterQs)]
	body := p.in.voterBody[qi%len(p.in.voterBody)]
	reqID := ""
	if p.traced {
		reqID = "v" + strconv.Itoa(qi)
	}
	askStart := time.Now()
	a, ok := c.ask(body, false, reqID)
	askEnd := time.Now()
	var root int
	if p.traced {
		root = p.tr.add(0, reqID, "op.vote", due, askEnd) // end fixed below
		p.tr.add(root, reqID, "http.ask", askStart, askEnd)
	}
	if !ok {
		return false
	}
	docs := a.docs()
	inList := false
	for _, d := range docs {
		inList = inList || d == q.BestDoc
	}
	if !inList {
		return true // the answer is not listed: the user walks away
	}
	rec := voteRec{Due: due, AskBody: body, Ranked: docs, Best: q.BestDoc, Send: time.Now()}
	r, _, vok := c.vote(voteReq{Query: a.Query, Ranked: docs, BestDoc: q.BestDoc}, reqID)
	rec.End = time.Now()
	rec.OK = vok
	if vok {
		rec.Flushed, rec.Report = r.Flushed, r.Report
	}
	if p.traced {
		p.tr.setEnd(root, rec.End)
		call := p.tr.add(root, reqID, "http.vote", rec.Send, rec.End)
		if rec.Report != nil {
			p.tr.addStages(call, reqID, rec.Send, reportStages(rec.Report))
		}
	}
	if vok {
		// One goroutine sends every vote, so acceptance order is send order.
		p.accepted++
		rec.Ordinal = p.res.First.Stats.Serving.VotesAccepted + p.accepted
	}
	p.res.Votes = append(p.res.Votes, rec)
	return vok
}

// reportStages lays out a flush report's stage timings as spans named
// after the modules that run them.
func reportStages(r *flushStats) []stageTime {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return []stageTime{
		{"core.enum", sec(r.EnumSeconds)},
		{"core.judge", sec(r.JudgeSeconds)},
		{"core.cluster", sec(r.ClusterSeconds)},
		{"core.solve", sec(r.SolveSeconds)},
		{"core.merge", sec(r.MergeSeconds)},
	}
}
