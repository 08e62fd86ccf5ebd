package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sramtest/internal/cluster"
)

// clockTicks is Linux's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat.
const clockTicks = 100

// startTimeout bounds one sramd start-up (the diagnose workload's
// includes loading a 1e5-entry dictionary).
const startTimeout = 120 * time.Second

// daemon is one running sramd child process.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once the process has ended
	base   string     // http://127.0.0.1:<port>
	setup  time.Duration
	client *http.Client
}

// startDaemon execs sramd with its default flags plus extra and returns
// once /healthz answers. setup is the time from exec to that answer, so
// it holds everything sramd does before it serves: on diagnose, loading
// the dictionary and building its index.
func startDaemon(cfg config, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(cfg.work, "sramd.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(cfg.sramd, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{
		cmd:    cmd,
		exited: make(chan error, 1),
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start sramd: %w", err)
	}
	go func() {
		d.exited <- cmd.Wait()
		logf.Close()
	}()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		if resp, err := probe.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		if time.Since(start) > startTimeout {
			_ = d.stop()
			return nil, fmt.Errorf("sramd did not answer /healthz within %v (log: %s)", startTimeout, logPath)
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("sramd exited during start-up: %v (log: %s)", err, logPath)
		case <-time.After(250 * time.Microsecond):
		}
	}
}

// stop sends SIGTERM, on which sramd drains and exits, and waits for the
// process to end; it kills the process if it is still running after 30 s.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("sramd ignored SIGTERM and was killed")
	}
}

// cpuSeconds returns the user+system CPU time the process has used.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start with field 3
	// (state); utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	user, err1 := strconv.ParseFloat(f[11], 64)
	sys, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return (user + sys) / clockTicks, nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// scrape reads sramd's Prometheus-text /metrics into name → value; a
// sample's labels stay part of its name.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// submit runs one job spec through POST /v1/batch and returns the job's
// result bytes once its streamed result line arrives.
func (d *daemon) submit(spec []byte) ([]byte, error) {
	body, err := post(d.client, d.base+"/v1/batch", spec)
	if err != nil {
		return nil, err
	}
	var br cluster.BatchResult
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, fmt.Errorf("batch result line: %w", err)
	}
	switch {
	case br.State != cluster.BatchStateDone:
		return nil, fmt.Errorf("job %s: %s", br.State, br.Error)
	case br.Cached:
		return nil, errors.New("cache hit on a spec this daemon had not seen")
	}
	return br.Result, nil
}

// post sends one NDJSON request body and returns the whole response body.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, err
}

// freePort returns a TCP port on the loopback interface that was free a
// moment ago.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
