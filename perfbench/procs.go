package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cfdserve or cfdrouter process started by the benchmark.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string        // http://host:port, parsed from the ready line
	done chan struct{} // closed once the process has exited
}

// readyAddr matches the listen address in the daemons' ready lines:
// "monitoring N tuples against M CFDs on 127.0.0.1:PORT (...)" and
// "routing N shard groups on 127.0.0.1:PORT (...)".
var readyAddr = regexp.MustCompile(` on (127\.0\.0\.1:\d+)`)

// startDaemon launches bin with args (which must include
// "-http 127.0.0.1:0") and waits for its ready line. Diagnostics go to
// logPath.
func startDaemon(name, bin string, args []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// Should the benchmark itself be killed, the kernel takes its
	// daemons down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		if first {
			close(lines)
		}
		_ = cmd.Wait() // the exit status of a process we stop ourselves says nothing
		logf.Close()
		close(d.done)
	}()
	select {
	case line, ok := <-lines:
		m := readyAddr.FindStringSubmatch(line)
		if !ok || m == nil {
			d.kill()
			return nil, fmt.Errorf("%s did not start (ready line %q; see %s)", name, line, logPath)
		}
		d.url = "http://" + m[1]
		return d, nil
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s not ready after 60s (see %s)", name, logPath)
	}
}

// kill SIGKILLs the process and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// stop asks the process to shut down cleanly, escalating to SIGKILL
// after 10 s, and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) while it runs.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", d.name)
}

// stopAll stops every daemon still running.
func stopAll(ds []*daemon) {
	for _, d := range ds {
		if d != nil {
			d.stop()
		}
	}
}

// client is one client lane, with one request in flight at a time; the
// load comes from at most two.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx answer other than 304, with the error
// envelope's code when the body carried one.
type statusError struct {
	status int
	code   string
	msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("HTTP %d %s: %s", e.status, e.code, e.msg)
}

// do sends one request. body (when non-nil) is JSON-encoded; out (when
// non-nil) receives the decoded 2xx body. A 304 is a success with no
// body. Any other non-2xx answer is returned as a *statusError decoded
// from the error envelope, and a transport failure as is.
func (c *client) do(method, url string, body any, hdr map[string]string, out any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, err
	}
	if resp.StatusCode == http.StatusNotModified {
		return resp, nil
	}
	if resp.StatusCode/100 != 2 {
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		_ = json.Unmarshal(raw, &env) // a body that is no envelope still fails the request
		return resp, &statusError{status: resp.StatusCode, code: env.Error.Code, msg: env.Error.Message}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp, nil
}

// metrics is one /v1/metrics scrape: series ("name{labels}") → value.
type metrics map[string]float64

func (c *client) scrape(base string) (metrics, error) {
	resp, err := c.hc.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{status: resp.StatusCode, msg: "metrics scrape"}
	}
	return parseProm(resp.Body)
}

// parseProm reads Prometheus text exposition format.
func parseProm(r io.Reader) (metrics, error) {
	out := make(metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// get returns a series' value; missing series read 0 (a histogram or
// counter the process has not touched yet).
func (m metrics) get(series string) float64 { return m[series] }

// delta is after − before for one series.
func delta(before, after metrics, series string) float64 {
	return after.get(series) - before.get(series)
}

// histMean is the mean of a histogram's observations between two
// scrapes, in the histogram's unit, with the observation count. labels
// is the "{...}" part ("" for none).
func histMean(before, after metrics, name, labels string) (mean, count float64) {
	n := delta(before, after, name+"_count"+labels)
	if n <= 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum"+labels) / n, n
}
