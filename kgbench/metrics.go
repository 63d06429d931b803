package main

import (
	"math"

	qmetrics "kgvote/internal/metrics"
)

// flushObs is one observed flush: its end-to-end latency and the stage
// timings kgvoted reported for it (enum, judge, cluster, solve, merge).
type flushObs struct {
	Latency float64
	Stages  [5]float64
	Report  *flushStats // nil for background flushes
	Index   int         // position among the pass's flushes
}

func (f flushObs) stageSum() float64 {
	s := 0.0
	for _, x := range f.Stages {
		s += x
	}
	return s
}

// flushes lists a pass's flushes. An inline flush is timed as the round
// trip of the vote that triggered it; a background flush, which no
// request waits for, as the growth of kgvoted's stage totals between two
// stats polls that saw exactly one flush complete.
func flushes(r *passResult, async bool) []flushObs {
	var out []flushObs
	if !async {
		for _, v := range r.Votes {
			if v.OK && v.Flushed && v.Report != nil {
				rep := v.Report
				out = append(out, flushObs{
					Latency: v.End.Sub(v.Send).Seconds(),
					Stages:  [5]float64{rep.EnumSeconds, rep.JudgeSeconds, rep.ClusterSeconds, rep.SolveSeconds, rep.MergeSeconds},
					Report:  rep,
					Index:   len(out),
				})
			}
		}
		return out
	}
	for i := 1; i < len(r.Mon); i++ {
		a, b := r.Mon[i-1], r.Mon[i]
		if b.Flushes != a.Flushes+1 {
			continue
		}
		var f flushObs
		for s := range f.Stages {
			f.Stages[s] = b.Stages[s] - a.Stages[s]
		}
		f.Latency = f.stageSum()
		f.Index = len(out)
		out = append(out, f)
	}
	return out
}

// meanFlush averages the flushes' latencies and stages. A run sees only
// some 15 flushes of uneven cost, so their median jumps between
// neighbours from run to run while the mean does not; and means keep
// the stages plus the unattributed rest summing exactly to the latency.
func meanFlush(fs []flushObs) flushObs {
	var m flushObs
	if len(fs) == 0 {
		m.Latency = math.NaN()
		return m
	}
	n := float64(len(fs))
	for _, f := range fs {
		m.Latency += f.Latency / n
		for i, s := range f.Stages {
			m.Stages[i] += s / n
		}
	}
	return m
}

// voteLatencies are the accepted votes' latencies in seconds: the vote's
// round trip for a closed-loop voter, time from due for an open-loop one.
func voteLatencies(r *passResult, open bool) []float64 {
	var out []float64
	for _, v := range r.Votes {
		if !v.OK {
			continue
		}
		from := v.Send
		if open {
			from = v.Due
		}
		out = append(out, v.End.Sub(from).Seconds())
	}
	return out
}

// visibility is, per accepted vote that a flush consumed, the time from
// sending it to the first ask answered from an epoch that includes it.
// The stats polls locate that epoch: the first poll whose consumed count
// (votes_accepted − votes_pending) reaches the vote's acceptance ordinal.
// Votes still pending at the end are not visible and not counted.
func visibility(r *passResult) []float64 {
	var out []float64
	for _, v := range r.Votes {
		if !v.OK {
			continue
		}
		for _, m := range r.Mon {
			if m.Accepted-m.Pending < v.Ordinal {
				continue
			}
			if at, ok := r.Seen.firstAtOrAfter(m.Epoch); ok {
				out = append(out, at.Sub(v.Send).Seconds())
			}
			break
		}
	}
	return out
}

// ranksOf returns each held-out question's 1-based rank of its true best
// document in the served list, 0 when it is not listed.
func ranksOf(in *inputs, as []*askResp) []int {
	out := make([]int, len(as))
	for i, a := range as {
		for j, r := range a.Results {
			if r.Doc == in.heldOut[i].BestDoc {
				out[i] = j + 1
				break
			}
		}
	}
	return out
}

// quality returns held-out MRR after feedback and Ω_avg, the mean rank
// gain of questions whose best answer was listed before feedback (one
// that drops out of the list counts as rank K+1).
func quality(in *inputs, r *passResult, k int) (mrr, omega float64) {
	before, after := ranksOf(in, r.HeldBefore), ranksOf(in, r.HeldAfter)
	mrr = qmetrics.MRR(after)
	var b, a []int
	for i := range before {
		if before[i] == 0 {
			continue
		}
		b = append(b, before[i])
		x := after[i]
		if x == 0 {
			x = k + 1
		}
		a = append(a, x)
	}
	omega, _ = qmetrics.OmegaAvg(b, a)
	return mrr, omega
}

// windowed summarizes a fixed-rate ask phase window by window and
// returns the median of the windows' p50 and p99 latencies.
func windowed(sp *spec, rate float64, ss []sample) (p50, p99 float64) {
	per := int(rate * float64(sp.AskWindowMS) / 1000)
	var p50s, p99s []float64
	for i := 0; per > 0 && i+per <= len(ss); i += per {
		w := summarize(rate, ss[i:i+per], sp.askLimit())
		p50s = append(p50s, w.P50ms)
		p99s = append(p99s, w.P99ms)
	}
	return median(p50s), median(p99s)
}

// endToEnd computes the untraced pass's end-to-end metrics.
func endToEnd(sp *spec, ws workloadSpec, in *inputs, r *passResult) map[string]float64 {
	fixed := summarize(sp.AskRate, r.Fixed, sp.askLimit())
	p50, p99 := windowed(sp, sp.AskRate, r.Fixed)
	votes := voteLatencies(r, ws.Voter == "open")
	vis := visibility(r)
	mrr, _ := quality(in, r, sp.K)
	return map[string]float64{
		"setup_s":        median(r.Setups),
		"peak_rss_mb":    r.PeakRSSMB,
		"ask_p50_ms":     p50,
		"ask_p99_ms":     p99,
		"ask_good_frac":  ratio(float64(fixed.Good), float64(fixed.Due)),
		"ask_max_qps":    r.MaxQPS,
		"vote_p50_ms":    median(votes) * 1e3,
		"vote_tail_ms":   quantile(votes, ws.VoteTail) * 1e3,
		"flush_s":        meanFlush(flushes(r, ws.AsyncFlush)).Latency,
		"votes_per_s":    ratio(float64(r.Consumed), r.VoterWall.Seconds()),
		"visible_p50_s":  median(vis),
		"visible_tail_s": quantile(vis, ws.VisibleTail),
		"quality_mrr":    mrr,
	}
}

// perLayer computes the per-layer metrics from the traced pass t, the
// untraced pass u of the same invocation (for tracing overhead and
// generator lateness), and the in-process replay's flushes (vote-loop).
func perLayer(sp *spec, ws workloadSpec, in *inputs, u, t *passResult, rf []replayFlush, chk *checks) map[string]float64 {
	m := map[string]float64{}
	// Serving path, from the traced asks' inline stage reports.
	var overhead, seed, resolve, rank []float64
	hits := 0
	for _, a := range t.AskTraces {
		overhead = append(overhead, a.RTTus-a.TotalUs)
		seed = append(seed, a.Stages["seed"])
		resolve = append(resolve, a.Stages["resolve"])
		rank = append(rank, a.Stages["rank"])
		if a.CacheHit {
			hits++
		}
	}
	m["server.ask_overhead_us"] = nz(median(overhead))
	m["qa.seed_us"] = nz(median(seed))
	m["qa.resolve_us"] = nz(median(resolve))
	m["core.rank_us_p50"] = nz(median(rank))
	m["core.rank_us_p99"] = nz(quantile(rank, 0.99))
	m["core.rank_cache_hit_ratio"] = ratio(float64(hits), float64(len(t.AskTraces)))
	d := func(name string) float64 { return t.Last.value(name, nil) - t.First.value(name, nil) }
	kept, dropped := d("kgvote_core_rank_cache_retained_total"), d("kgvote_core_rank_cache_dropped_total")
	m["core.rank_cache_retained_ratio"] = ratio(kept, kept+dropped)

	// Flush pipeline: mean stages per flush, from the flush reports.
	fs := flushes(t, ws.AsyncFlush)
	mf := meanFlush(fs)
	names := []string{"core.enum_s", "core.judge_s", "core.cluster_s", "core.solve_s", "core.merge_s"}
	for i, n := range names {
		m[n] = mf.Stages[i]
	}
	unattributed := 0.0
	for _, f := range fs {
		unattributed += (f.Latency - f.stageSum()) / float64(len(fs))
	}
	m["core.flush_unattributed_s"] = unattributed
	slack := sp.FlushReportSlackMS / 1e3
	for _, f := range fs {
		if f.stageSum() > f.Latency+slack {
			chk.fail("flush %d: reported stages %.6fs exceed its %.6fs round trip", f.Index, f.stageSum(), f.Latency)
		}
	}
	eh, em := d("kgvote_enum_cache_hits_total"), d("kgvote_enum_cache_misses_total")
	m["core.enum_cache_hit_ratio"] = ratio(eh, eh+em)
	m["sgp.encode_s"], m["sgp.solve_s"] = 0, 0
	for _, f := range rf {
		m["sgp.encode_s"] += f.EncodeS / float64(len(rf))
		m["sgp.solve_s"] += f.SolveS / float64(len(rf))
	}
	var vars, cons, outer, inner, sat, consAll, enc, votes, partial float64
	for i, f := range fs {
		rep := f.Report
		if rep == nil {
			continue
		}
		if i < sp.FirstFlushesCounted {
			vars += float64(rep.Variables)
			cons += float64(rep.Constraints)
			outer += float64(rep.Outer)
			inner += float64(rep.InnerIters)
		}
		sat += float64(rep.Satisfied)
		consAll += float64(rep.Constraints)
		enc += float64(rep.Encoded)
		votes += float64(rep.Votes)
		if rep.Partial {
			partial++
		}
	}
	m["sgp.variables"], m["sgp.constraints"] = vars, cons
	m["optimize.outer_iters"], m["optimize.inner_iters"] = outer, inner
	m["sgp.satisfied_ratio"] = ratio(sat, consAll)
	m["vote.kept_ratio"] = ratio(enc, votes)
	m["sgp.partial_flushes"] = partial

	// Durability, from /metrics deltas.
	b, c, n := histDelta(t.First, t.Last, "kgvote_wal_append_seconds")
	m["wal.append_us_p50"] = nz(histQuantile(b, c, n, 0.5) * 1e6)
	b, c, n = histDelta(t.First, t.Last, "kgvote_wal_fsync_seconds")
	m["wal.fsync_ms_p50"] = nz(histQuantile(b, c, n, 0.5) * 1e3)
	accepted := float64(t.Last.Stats.Serving.VotesAccepted - t.First.Stats.Serving.VotesAccepted)
	m["wal.bytes_per_vote"] = ratio(d("kgvote_wal_append_bytes_total"), accepted)
	m["durable.commits"] = d("kgvote_durable_commits_total")

	// Writer occupancy and admission.
	busy := 0.0
	if t.Last.Stats.Flush != nil {
		l := t.Last.Stats.Flush
		busy = l.EnumSeconds + l.JudgeSeconds + l.ClusterSeconds + l.SolveSeconds + l.MergeSeconds
		if f := t.First.Stats.Flush; f != nil {
			busy -= f.EnumSeconds + f.JudgeSeconds + f.ClusterSeconds + f.SolveSeconds + f.MergeSeconds
		}
	}
	m["server.flush_busy_frac"] = ratio(busy, t.Wall.Seconds())
	shed := 0.0
	if t.Last.Stats.Admission != nil && t.First.Stats.Admission != nil {
		shed = float64(t.Last.Stats.Admission.Shed - t.First.Stats.Admission.Shed)
	}
	m["admit.shed_count"] = shed

	// Validity of the measurement itself.
	var late []float64
	for _, s := range u.Fixed {
		late = append(late, ms(s.late()))
	}
	m["loadgen.late_ms_p99"] = nz(quantile(late, 0.99))
	up, _ := windowed(sp, sp.AskRate, u.Fixed)
	tp, _ := windowed(sp, sp.AskRate, t.Fixed)
	m["trace.overhead_pct"] = ratio(tp-up, up) * 100
	_, omega := quality(in, t, sp.K)
	m["quality.omega_avg"] = omega
	return m
}

// checkAskStages verifies that each traced ask's reported stages fit in
// its reported total and leave at most the stated gap unaccounted for
// at the median.
func checkAskStages(sp *spec, t *passResult, chk *checks) {
	var gaps []float64
	for i, a := range t.AskTraces {
		sum := 0.0
		for _, us := range a.Stages {
			sum += us
		}
		// total_us is truncated to whole microseconds.
		if sum > a.TotalUs+1 {
			chk.fail("traced ask %d: stages sum to %.1fµs, more than total %.0fµs", i, sum, a.TotalUs)
		}
		gaps = append(gaps, a.TotalUs-sum)
	}
	if g := median(gaps); len(gaps) > 0 && g > sp.AskTraceGapUS {
		chk.fail("traced asks: median %.1fµs of total_us is outside the reported stages (tolerance %.0fµs)", g, sp.AskTraceGapUS)
	}
}

// nz maps NaN (no samples) to 0 for reporting.
func nz(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
