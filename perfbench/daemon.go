package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"uvmsim/internal/harness"
	"uvmsim/internal/server"
)

// daemon is one sweepd process started by the benchmark.
type daemon struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	base    string // http://host:port
	client  *http.Client
	log     *os.File
	stopped bool // set by stop
}

// addrWriter receives sweepd's stdout and hands over the listen address
// from its first line ("" if that line holds none).
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	addr chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		w.sent = true
		line := string(w.buf[:i])
		addr := ""
		if start := strings.Index(line, "http://"); start >= 0 {
			addr = strings.Fields(line[start:])[0]
		}
		w.addr <- addr
	}
	return len(p), nil
}

// startDaemon starts sweepd on a fresh store under dir and returns once
// /healthz answers; ready is the wall time from start to that answer.
func startDaemon(bin, dir string, jobs int) (d *daemon, ready time.Duration, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	log, err := os.Create(filepath.Join(dir, "sweepd.log"))
	if err != nil {
		return nil, 0, err
	}
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-jobs", strconv.Itoa(jobs),
		"-cachedir", filepath.Join(dir, "cache"))
	cmd.Stdout = aw
	cmd.Stderr = log
	// If the benchmark is killed before it can stop the daemon, the
	// kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("starting sweepd: %w", err)
	}
	d = &daemon{cmd: cmd, exited: make(chan struct{}), log: log, client: &http.Client{Timeout: 120 * time.Second}}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	fail := func(format string, args ...any) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, fmt.Errorf(format+" (log: %s)", append(args, log.Name())...)
	}
	select {
	case d.base = <-aw.addr:
		if d.base == "" {
			return fail("sweepd: no listen address on its first line")
		}
	case <-d.exited:
		return fail("sweepd exited at start: %v", d.waitErr)
	case <-time.After(30 * time.Second):
		return fail("sweepd printed no listen address within 30s")
	}
	for {
		resp, err := d.client.Get(d.base + "/api/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			return fail("sweepd /healthz did not answer within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks sweepd to drain and exit, kills it if it has not exited
// within 20s, and waits for it. Calling stop again is a no-op.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case <-d.exited:
		// sweepd answers requests before it installs its SIGTERM handler,
		// so a daemon stopped right after start may die of the signal
		// instead of draining; both are the stop asked for.
		if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
			err = d.waitErr
		}
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		err = fmt.Errorf("sweepd did not drain within 20s")
	}
	d.log.Close()
	d.stopped = true
	return err
}

// cpuTime returns the running daemon's CPU time so far: the sum over its
// threads of the nanosecond run time the kernel keeps in
// /proc/<pid>/task/<tid>/schedstat, or, where the kernel keeps none,
// user plus system time from /proc/<pid>/stat in 10 ms ticks. Go never
// ends the threads it has started, so no thread's time drops out of the
// sum between two readings.
func (d *daemon) cpuTime() (time.Duration, error) {
	proc := fmt.Sprintf("/proc/%d", d.cmd.Process.Pid)
	files, err := filepath.Glob(proc + "/task/*/schedstat")
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	read := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // a thread that ended between Glob and ReadFile
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		sum += time.Duration(ns)
		read++
	}
	if read > 0 {
		return sum, nil
	}
	data, err := os.ReadFile(proc + "/stat")
	if err != nil {
		return 0, fmt.Errorf("sweepd CPU time: %w", err)
	}
	// The fields after the parenthesised command name start with the
	// state (field 3); utime and stime are fields 14 and 15.
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("sweepd CPU time: unparsable %s/stat", proc)
	}
	const userHZ = 100 // the unit of /proc times on Linux
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("sweepd CPU time: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// peakRSSMB returns the running daemon's peak resident memory so far,
// VmHWM from /proc/<pid>/status. The rusage of the exited process is no
// substitute: the kernel starts a child's ru_maxrss at the parent's peak
// when the child execs, so it would report the benchmark's own memory.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("sweepd peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("sweepd peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("sweepd peak RSS: no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// call performs one request and decodes a JSON answer into out (unless
// out is nil, when the body is returned raw).
func (d *daemon) call(method, path string, body any, want int, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return data, nil
}

// gridResults is the /grids/{id}/results body.
type gridResults struct {
	ID      string             `json:"id"`
	Total   int                `json:"total"`
	Failed  int                `json:"failed"`
	Results []server.JobResult `json:"results"`
}

// storesBody is the part of the /stores body the benchmark reads.
type storesBody struct {
	BuildCache harness.BuildStats `json:"builds"`
	Queue      struct {
		Workers int `json:"workers"`
	} `json:"queue"`
	Totals harness.Totals `json:"totals"`
}

func (d *daemon) stores() (storesBody, storeCounters, error) {
	var st storesBody
	if _, err := d.call("GET", "/api/v1/stores", nil, http.StatusOK, &st); err != nil {
		return st, storeCounters{}, err
	}
	return st, storeCounters{
		runs:      int64(st.Totals.Done + st.Totals.Failed),
		builds:    st.BuildCache.Builds,
		diskSaves: st.BuildCache.DiskSaves,
		diskLoads: st.BuildCache.DiskLoads,
	}, nil
}

// events reads a grid's complete event stream (it ends with the grid's
// terminal record).
func (d *daemon) events(id string) ([]harness.Event, error) {
	data, err := d.call("GET", "/api/v1/grids/"+id+"/events", nil, http.StatusOK, nil)
	if err != nil {
		return nil, err
	}
	var evs []harness.Event
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var ev harness.Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("grid %s events: %w", id, err)
		}
		evs = append(evs, ev)
	}
	if len(evs) == 0 || evs[len(evs)-1].Type != "grid" {
		return evs, fmt.Errorf("grid %s: event stream ended without the grid record", id)
	}
	return evs, nil
}
