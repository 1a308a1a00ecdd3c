package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clientTimeout bounds every benchmark request; a request that hits it
// counts as timed out.
const clientTimeout = 60 * time.Second

// server is one mpqserve process on a loopback port.
type server struct {
	cmd   *exec.Cmd
	base  string
	ready time.Duration // process start to first answered /stats
	done  chan error    // the process's exit status
	peak  float64       // VmHWM in MB, read just before the process stops
}

// startServer starts mpqserve with args (plus a loopback -addr) and
// waits until it answers /stats.
func startServer(ctx context.Context, bin string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{base: "http://" + addr, done: make(chan error, 1)}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = io.Discard, io.Discard
	// The server dies with the benchmark, whatever ends it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mpqserve: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(t0)
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("mpqserve exited before it was ready: %v", err)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(250 * time.Microsecond):
			// A fine poll keeps the quantization of a ~7 ms start small.
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, errors.New("mpqserve not ready within 30s")
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop records the peak RSS, then sends SIGTERM and waits for the
// process to exit (SIGKILL after a grace period). Safe to call twice.
func (s *server) stop() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	if mb, err := vmHWM(s.cmd.Process.Pid); err == nil {
		s.peak = mb
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		err := <-s.done
		s.done <- err
	}
	s.cmd = nil
}

// vmHWM reads a process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// conn is one client connection: a closed-loop caller that waits for
// each reply before sending its next request.
type conn struct {
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr, Timeout: clientTimeout}, base: base}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and reads the whole reply, timing both.
func (c *conn) do(method, path string, body []byte) ([]byte, time.Duration, outcome, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, failed, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, time.Since(t0), timedOut, err
		}
		return nil, time.Since(t0), failed, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, d, failed, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return out, d, ok, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return out, d, refused, fmt.Errorf("%s %s: %s", method, path, resp.Status)
	case http.StatusGatewayTimeout, http.StatusRequestTimeout:
		return out, d, timedOut, fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return out, d, failed, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
}

// getJSON fetches path into v outside any timed window.
func (c *conn) getJSON(path string, v any) error {
	b, _, _, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// prepareResp is the /prepare reply.
type prepareResp struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
}

// prepareBody encodes a /prepare request for t.
func prepareBody(t template) []byte {
	b, _ := json.Marshal(struct {
		Workload template `json:"workload"`
	}{t})
	return b
}

// addDelta adds the counter increase from before to after into s.
func (s *statsJS) addDelta(before, after statsJS) {
	s.Reloads += after.Reloads - before.Reloads
	s.Index.IndexPicks += after.Index.IndexPicks - before.Index.IndexPicks
	s.Index.FallbackPicks += after.Index.FallbackPicks - before.Index.FallbackPicks
	s.Cache.Evictions += after.Cache.Evictions - before.Cache.Evictions
	s.Cache.Hits += after.Cache.Hits - before.Cache.Hits
	s.Cache.Misses += after.Cache.Misses - before.Cache.Misses
}

// statsJS is the part of GET /stats the benchmark reads.
type statsJS struct {
	Reloads int64
	Index   struct {
		IndexPicks, FallbackPicks int64
	}
	Cache struct {
		ResidentBytes int64
		Evictions     int64
		Hits, Misses  int64
	}
}
