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
)

// node is one running fairserve process and the single keep-alive
// connection the generator holds to it.
type node struct {
	url    string
	cmd    *exec.Cmd
	exited chan error
	client *http.Client
	// respBytes counts response body bytes read from this node.
	respBytes int64
	requests  int64
}

// freePort asks the kernel for an unused loopback port. The port is
// released before fairserve binds it; nothing else on the host races
// for loopback ports during a run.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startNode launches fairserve on port with its store under dir and
// waits until /healthz answers.
func startNode(bin, dir string, port int, extra ...string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-db", filepath.Join(dir, "fairrank.db"),
		"-drain", "5s",
	}, extra...)
	cmd := exec.Command(bin, args...)
	// If the generator is killed, its servers go with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(filepath.Join(dir, "fairserve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fairserve: %w", err)
	}
	n := &node{
		url:    fmt.Sprintf("http://127.0.0.1:%d", port),
		cmd:    cmd,
		exited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	go func() { n.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := n.do("GET", "/healthz", nil, nil)
		if err == nil && status == http.StatusOK {
			return n, nil
		}
		select {
		case err := <-n.exited:
			n.exited <- err
			return nil, fmt.Errorf("fairserve exited during boot: %v (log: %s)", err, filepath.Join(dir, "fairserve.log"))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			n.stop()
			return nil, errors.New("fairserve did not become healthy within 30s")
		}
	}
}

// stop asks fairserve to shut down gracefully and waits until the
// process has exited, killing it if it outlives the drain deadline.
func (n *node) stop() {
	n.client.CloseIdleConnections()
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-n.exited:
		n.exited <- err
	case <-time.After(15 * time.Second):
		_ = n.cmd.Process.Kill()
		n.exited <- <-n.exited
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func (n *node) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// do sends one request and reads the whole response body.
func (n *node) do(method, path string, body []byte, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequest(method, n.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil && hdr["Content-Type"] == "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	n.requests++
	n.respBytes += int64(len(out))
	return resp.StatusCode, out, err
}

// doJSON sends a request, requires status want and decodes the body into
// v (when non-nil).
func (n *node) doJSON(method, path string, body []byte, want int, v any) error {
	return n.call(method, path, body, nil, want, v)
}

// call is doJSON with extra request headers.
func (n *node) call(method, path string, body []byte, hdr map[string]string, want int, v any) error {
	status, out, err := n.do(method, path, body, hdr)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, path, status, want, bytes.TrimSpace(out))
	}
	if v != nil {
		if err := json.Unmarshal(out, v); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// sse is one server-sent event.
type sse struct {
	event string
	data  []byte
}

// follow reads a server-sent-event stream until the server ends it.
func (n *node) follow(path string) ([]sse, error) {
	resp, err := n.client.Get(n.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	n.requests++
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	var events []sse
	var cur sse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		n.respBytes += int64(len(line)) + 1
		switch {
		case len(line) == 0:
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sse{}
		case bytes.HasPrefix(line, []byte("event: ")):
			cur.event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			cur.data = append([]byte(nil), line[len("data: "):]...)
		}
	}
	return events, sc.Err()
}

// scrape reads the Prometheus exposition into series → value.
func (n *node) scrape() (map[string]float64, error) {
	status, out, err := n.do("GET", "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series[line[:i]] = v
	}
	return series, nil
}

// memstats is the part of the runtime's MemStats read from /debug/vars.
type memstats struct {
	NumGC        uint32 `json:"NumGC"`
	PauseTotalNs uint64 `json:"PauseTotalNs"`
	TotalAlloc   uint64 `json:"TotalAlloc"`
}

func (n *node) memstats() (memstats, error) {
	var vars struct {
		Memstats memstats `json:"memstats"`
	}
	err := n.doJSON("GET", "/debug/vars", nil, http.StatusOK, &vars)
	return vars.Memstats, err
}

// counters is one before-or-after reading of a node's server-side counts.
type counters struct {
	series map[string]float64
	mem    memstats
}

func (n *node) counters() (counters, error) {
	s, err := n.scrape()
	if err != nil {
		return counters{}, err
	}
	m, err := n.memstats()
	return counters{series: s, mem: m}, err
}

// sum adds the series of metric name whose labels contain every filter.
func (c counters) sum(name string, filters ...string) float64 {
	total := 0.0
	for series, v := range c.series {
		base, labels, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, f := range filters {
			if !strings.Contains(labels, f) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}
