// Command kgbench is kgvote's end-to-end benchmark. It generates a
// corpus, question streams and voter choices from -seed, boots a real
// kgvoted on them, drives it over loopback HTTP with one of three
// workloads, checks the answers, and reports the end-to-end metrics
// (-trace 0) or the per-layer metrics of a traced run on the same inputs
// (-trace 1). spec.json fixes every setting and documents every metric.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	kgbench -kgvoted bin/kgvoted -out results \
//	    -workload vote-loop -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The run exits non-zero when an output check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	qmetrics "kgvote/internal/metrics"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see spec.json)")
		seed     = flag.Int64("seed", 1, "input seed: corpus, questions and voter choices")
		seconds  = flag.Float64("seconds", 25, "measured seconds per pass")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		kgvoted  = flag.String("kgvoted", "", "kgvoted binary")
		out      = flag.String("out", "results", "directory for result files, spans and daemon logs")
	)
	flag.Parse()
	// The generator's own collections delay sends and show up as late
	// asks; collect less often.
	debug.SetGCPercent(400)
	if err := run(*workload, *seed, *seconds, *trace == 1, *kgvoted, *out); err != nil {
		fmt.Fprintln(os.Stderr, "kgbench:", err)
		os.Exit(1)
	}
}

// result is the machine-readable summary line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(workload string, seed int64, seconds float64, traced bool, bin, out string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	ws, ok := sp.Workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if bin == "" {
		return errors.New("-kgvoted is required")
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	t := 0
	if traced {
		t = 1
	}
	dir, err := filepath.Abs(filepath.Join(out, fmt.Sprintf("%s-s%d-t%d", workload, seed, t)))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	in, err := makeInputs(sp, seed, dir)
	if err != nil {
		return err
	}
	chk := &checks{}
	newPass := func(tr *tracer) (*pass, error) {
		sub := filepath.Join(dir, "untraced")
		if tr != nil {
			sub = filepath.Join(dir, "traced")
		}
		return &pass{sp: sp, ws: ws, in: in, bin: mustAbs(bin), dir: sub,
			secs: seconds, traced: tr != nil, tr: tr, chk: chk}, os.MkdirAll(sub, 0o755)
	}
	up, err := newPass(nil)
	if err != nil {
		return err
	}
	u, err := up.run()
	if err != nil {
		return err
	}
	rec := record{
		Provenance: provenance(seed, seconds, traced, up.daemonArgs("<data-dir>")),
		Spec:       json.RawMessage(specJSON),
		Untraced:   summary(sp, ws, in, u),
	}
	// Every figure goes into one map; the spec's end_to_end and per_layer
	// lists pick what each kind of run reports.
	metrics := endToEnd(sp, ws, in, u)
	specs := sp.EndToEnd
	ops := u.Ops
	if traced {
		tr := &tracer{}
		p, err := newPass(tr)
		if err != nil {
			return err
		}
		tp, err := p.run()
		if err != nil {
			return err
		}
		var rf []replayFlush
		if workload == "vote-loop" {
			if rf, err = replay(in, sp, tp, chk); err != nil {
				return err
			}
		}
		checkAskStages(sp, tp, chk)
		for k, v := range perLayer(sp, ws, in, u, tp, rf, chk) {
			metrics[k] = v
		}
		specs = sp.PerLayer
		ops = tp.Ops
		s := summary(sp, ws, in, tp)
		rec.Traced = &s
		rec.SelfSeconds = map[string]float64{}
		for name, d := range selfTimes(tr.spans) {
			rec.SelfSeconds[name] = d.Seconds()
		}
		rec.Replay = rf
		if err := tr.write(filepath.Join(dir, "spans.jsonl")); err != nil {
			return err
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, ms := range specs {
		v, ok := metrics[ms.Name]
		switch {
		case !ok:
			chk.fail("metric %s was not computed", ms.Name)
			v = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			chk.fail("metric %s has no samples", ms.Name)
			v = 0
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	for _, c := range []*opCount{&ops.Ask, &ops.Vote, &ops.Flush} {
		res.Attempted += c.Attempted.Load()
		res.Failed += c.Failed.Load() + c.Shed.Load()
	}
	res.Correct = chk.n == 0
	rec.Result = res
	rec.Checks = chk.first
	// JSON has no NaN: a figure without samples is recorded as 0 (the
	// reported ones were checked above).
	rec.Metrics = make(map[string]float64, len(metrics))
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec.Metrics[k] = v
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), rec); err != nil {
		return err
	}
	removeDataDirs(dir)

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, c := range chk.first {
		fmt.Println("CHECK FAILED:", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// record is the full result file of one invocation.
type record struct {
	Provenance  map[string]any     `json:"provenance"`
	Result      result             `json:"result"`
	Checks      []string           `json:"failed_checks,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Untraced    passSummary        `json:"untraced"`
	Traced      *passSummary       `json:"traced,omitempty"`
	SelfSeconds map[string]float64 `json:"self_seconds,omitempty"`
	Replay      []replayFlush      `json:"replay_flushes,omitempty"`
	Spec        json.RawMessage    `json:"spec"`
}

// passSummary is what one pass recorded, for the result file.
type passSummary struct {
	Setups     []float64           `json:"setup_s"`
	Fixed      windowStats         `json:"ask_fixed"`
	Ladder     []windowStats       `json:"ladder"`
	MaxQPS     float64             `json:"ask_max_qps"`
	Censored   bool                `json:"ladder_censored"`
	Ops        map[string][4]int64 `json:"ops_attempted_succeeded_failed_shed"`
	Flushes    []float64           `json:"flush_latencies_s"`
	Votes      int                 `json:"votes_accepted"`
	Consumed   int                 `json:"votes_flushed"`
	VoterWallS float64             `json:"voter_wall_s"`
	Visible    int                 `json:"visible_samples"`
	VoteTailN  int                 `json:"vote_samples"`
	// TailRule is the highest percentile each sample supports (at least
	// ten samples beyond it), to compare with the spec's fixed tails.
	TailRule  map[string]float64 `json:"tail_rule_percentile"`
	MRRBefore float64            `json:"quality_mrr_before"`
	MRRAfter  float64            `json:"quality_mrr_after"`
	Omega     float64            `json:"quality_omega_avg"`
	WallS     float64            `json:"wall_s"`
}

func summary(sp *spec, ws workloadSpec, in *inputs, r *passResult) passSummary {
	s := passSummary{
		Setups: r.Setups, Ladder: r.Ladder, MaxQPS: r.MaxQPS, Censored: r.Censored,
		Fixed:      summarize(sp.AskRate, r.Fixed, sp.askLimit()),
		Ops:        map[string][4]int64{},
		Consumed:   r.Consumed,
		VoterWallS: r.VoterWall.Seconds(),
		Visible:    len(visibility(r)),
		VoteTailN:  len(voteLatencies(r, ws.Voter == "open")),
		TailRule: map[string]float64{
			"ask_window": tailPercentile(int(sp.AskRate * float64(sp.AskWindowMS) / 1000)),
		},
		WallS: r.Wall.Seconds(),
	}
	for name, c := range map[string]*opCount{"ask": &r.Ops.Ask, "vote": &r.Ops.Vote, "flush": &r.Ops.Flush} {
		s.Ops[name] = [4]int64{c.Attempted.Load(), c.Succeeded.Load(), c.Failed.Load(), c.Shed.Load()}
	}
	s.TailRule["vote"] = tailPercentile(s.VoteTailN)
	s.TailRule["visible"] = tailPercentile(s.Visible)
	s.MRRBefore = qmetrics.MRR(ranksOf(in, r.HeldBefore))
	s.MRRAfter, s.Omega = quality(in, r, sp.K)
	for _, f := range flushes(r, ws.AsyncFlush) {
		s.Flushes = append(s.Flushes, f.Latency)
	}
	for _, v := range r.Votes {
		if v.OK {
			s.Votes++
		}
	}
	return s
}

// provenance records what produced a result: inputs, daemon flags,
// toolchain, machine shape and source revision.
func provenance(seed int64, seconds float64, traced bool, args []string) map[string]any {
	return map[string]any{
		"seed":          seed,
		"seconds":       seconds,
		"traced":        traced,
		"kgvoted_flags": args,
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}

func gitCommit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "" // not a git checkout; source_sha256 identifies the tree
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes go.mod and every .go file of the module outside
// the benchmark's own build output, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// removeDataDirs deletes the daemons' WAL directories once a run is
// recorded; logs, results and spans stay.
func removeDataDirs(dir string) {
	dataDirs, _ := filepath.Glob(filepath.Join(dir, "*", "data-*"))
	for _, d := range dataDirs {
		os.RemoveAll(d)
	}
}
