package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// spec.json fixes every setting a run depends on — corpus and question
// shapes, the ask latency limit, tail percentiles, phase lengths — and
// records each metric's unit, direction and predicted mover, so the
// numbers mean the same thing on every commit that runs this benchmark.
//
//go:embed spec.json
var specJSON []byte

type spec struct {
	AskLimitMS float64 `json:"ask_limit_ms"`
	// AskWindowMS splits a fixed-rate ask phase into windows; the ask
	// figures are medians over windows, so one stall moves one window.
	AskWindowMS int `json:"ask_window_ms"`
	K           int `json:"k"`
	// Batch is kgvoted's -batch: votes per flush.
	Batch int `json:"batch"`
	// AskRate is the fixed open-loop ask rate (per second) the ask
	// figures are measured at.
	AskRate float64 `json:"ask_rate"`
	Corpus  struct {
		Docs             int   `json:"docs"`
		Topics           int   `json:"topics"`
		EntitiesPerTopic int   `json:"entities_per_topic"`
		EntitiesPerDoc   int   `json:"entities_per_doc"`
		Seed             int64 `json:"seed"`
	} `json:"corpus"`
	Questions struct {
		AskPool   int     `json:"ask_pool"`
		ZipfS     float64 `json:"zipf_s"`
		HotDocs   int     `json:"hot_docs"`
		HotProb   float64 `json:"hot_prob"`
		VoterBank int     `json:"voter_bank"`
		HeldOut   int     `json:"held_out"`
	} `json:"questions"`
	SetupBoots  int `json:"setup_boots"`
	StatsPollMS int `json:"stats_poll_ms"`
	Ladder      struct {
		// StartRate is the ladder's first rate, near the expected limit
		// so the budget is spent where steps pass and fail.
		StartRate   float64 `json:"start_rate"`
		CoarseRatio float64 `json:"coarse_ratio"`
		FineRatio   float64 `json:"fine_ratio"`
		StepMS      int     `json:"step_ms"`
		// Attempts is how often a failing rate is tried before the
		// ladder stops: a stall can fail one step below the limit.
		Attempts      int `json:"attempts"`
		AbandonLateMS int `json:"abandon_late_ms"`
	} `json:"ladder"`
	FirstFlushesCounted int                     `json:"first_flushes_counted"`
	AskTraceGapUS       float64                 `json:"ask_trace_gap_us"`
	FlushReportSlackMS  float64                 `json:"flush_report_slack_ms"`
	Workloads           map[string]workloadSpec `json:"workloads"`
	EndToEnd            []metricSpec            `json:"end_to_end"`
	PerLayer            []metricSpec            `json:"per_layer"`
}

type workloadSpec struct {
	Why        string `json:"why"`
	AsyncFlush bool   `json:"async_flush"`
	Voter      string `json:"voter"` // "closed" or "open"
	// Concurrent runs the fixed-rate ask window beside the voter;
	// otherwise it follows the voter.
	Concurrent bool    `json:"concurrent"`
	VoteRate   float64 `json:"vote_rate"`
	// Phases are shares of --seconds: voter is how long feedback is
	// generated, ask_fixed the fixed-rate ask window, and ladder the rate
	// ladder's budget, which always runs last, alone.
	Phases struct {
		AskFixed float64 `json:"ask_fixed"`
		Ladder   float64 `json:"ladder"`
		Voter    float64 `json:"voter"`
	} `json:"phases"`
	VoteTail    float64 `json:"vote_tail"`
	VisibleTail float64 `json:"visible_tail"`
}

// metricSpec documents one reported metric.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	What   string `json:"what"`
	// Moves names the end-to-end metrics and workloads a change to this
	// layer should move (per-layer metrics only).
	Moves string `json:"moves,omitempty"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	if s.K < 1 || s.AskLimitMS <= 0 || s.AskWindowMS < 1 || s.SetupBoots < 1 || s.StatsPollMS < 1 || s.Ladder.Attempts < 1 {
		return nil, fmt.Errorf("spec.json: bad top-level settings")
	}
	return &s, nil
}

func (s *spec) askLimit() time.Duration {
	return time.Duration(s.AskLimitMS * float64(time.Millisecond))
}
