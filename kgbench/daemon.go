package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kgvote/api"
	"kgvote/internal/telemetry"
)

// daemon is one kgvoted process the benchmark started.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error
}

// bootTimeout bounds exec → healthy; a kgvoted that takes longer is broken.
const bootTimeout = 30 * time.Second

// startDaemon execs kgvoted with args plus a free loopback -addr and
// returns once /v1/healthz answers 200, with the time that took.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// kgvoted must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: lf, done: make(chan error, 1)}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("start kgvoted: %w", err)
	}
	go func() { d.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			lf.Close()
			return nil, 0, fmt.Errorf("kgvoted exited during boot (%v); log in %s", err, logPath)
		default:
		}
		if time.Since(t0) > bootTimeout {
			d.stop()
			return nil, 0, fmt.Errorf("kgvoted not healthy after %s; log in %s", bootTimeout, logPath)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM (kgvoted drains and checkpoints), waits for the
// process to exit, and kills it if the drain overruns.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.done:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-d.done
		err = fmt.Errorf("kgvoted did not drain within 60s: %v", err)
	}
	d.log.Close()
	return err
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// scrape is one read of /v1/stats and /metrics.
type scrape struct {
	Stats api.StatsBody
	Exp   *telemetry.Exposition
}

func (d *daemon) scrape(hc *http.Client) (*scrape, error) {
	s := &scrape{}
	if err := getJSON(hc, d.base+"/v1/stats", &s.Stats); err != nil {
		return nil, err
	}
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	s.Exp, err = telemetry.ParseExposition(resp.Body)
	return s, err
}

// value returns a series' value, 0 when absent (a counter never touched).
func (s *scrape) value(name string, labels map[string]string) float64 {
	v, _ := s.Exp.Value(name, labels)
	return v
}

// histDelta returns a histogram's cumulative bucket counts between two
// scrapes: finite bounds ascending, their counts, and the total.
func histDelta(a, b *scrape, name string) (bounds, counts []float64, total float64) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, smp := range b.Exp.Samples {
		if smp.Name != name+"_bucket" || smp.Labels["le"] == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(smp.Labels["le"], 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, smp.Value - a.value(name+"_bucket", smp.Labels)})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, x := range bs {
		bounds = append(bounds, x.le)
		counts = append(counts, x.n)
	}
	total = b.value(name+"_count", nil) - a.value(name+"_count", nil)
	return bounds, counts, total
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// newConn returns a client bound to one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

func mustAbs(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return a
}
