package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pnn/internal/server"
)

// clockTick is the kernel's USER_HZ, the unit of the utime/stime fields
// of /proc/PID/stat; it is 100 on every Linux the benchmark targets.
const clockTick = 100

// node is one pnnserve child process.
type node struct {
	name string
	cmd  *exec.Cmd
	base string // http://127.0.0.1:PORT
	logs *lockedBuffer
	done chan struct{} // closed once Wait has returned
}

// lockedBuffer collects a child's combined output; exec copies into it
// from its own goroutine while a failure path may read it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// procs tracks every live child so that any exit path — normal return,
// failure, deadline, SIGINT — can kill and reap all of them.
type procs struct {
	mu    sync.Mutex
	bin   string
	nodes []*node
}

// freePorts reserves n distinct loopback ports and releases them for
// the servers to bind.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// spawn starts one pnnserve on a loopback port with its output
// captured. The child dies with the driver (Pdeathsig) even when the
// driver is killed without a chance to clean up.
func (p *procs) spawn(name string, port int, args ...string) (*node, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(p.bin, append([]string{"-addr", addr}, args...)...)
	n := &node{name: name, cmd: cmd, base: "http://" + addr, logs: &lockedBuffer{}, done: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = n.logs, n.logs
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(n.done)
	}()
	p.mu.Lock()
	p.nodes = append(p.nodes, n)
	p.mu.Unlock()
	return n, nil
}

// kill SIGKILLs the node and waits until it has been reaped.
func (n *node) kill() {
	_ = n.cmd.Process.Kill() // already-exited is fine
	<-n.done
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// killAll kills and reaps every child still tracked.
func (p *procs) killAll() {
	p.mu.Lock()
	nodes := p.nodes
	p.nodes = nil
	p.mu.Unlock()
	for _, n := range nodes {
		n.kill()
	}
}

// dumpLogs writes every tracked child's captured output to w.
func (p *procs) dumpLogs(w io.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.nodes {
		fmt.Fprintf(w, "---- %s (pid %d) ----\n%s\n", n.name, n.pid(), n.logs.String())
	}
}

// waitHealthy polls /healthz until the node answers 200, the node
// exits, or ctx ends.
func (n *node) waitHealthy(ctx context.Context, hc *http.Client) (*server.HealthResponse, error) {
	for {
		if h, err := getHealth(ctx, hc, n.base); err == nil {
			return h, nil
		}
		select {
		case <-n.done:
			return nil, fmt.Errorf("%s exited before becoming healthy:\n%s", n.name, n.logs.String())
		case <-ctx.Done():
			return nil, fmt.Errorf("%s never became healthy: %w", n.name, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// getJSON fetches url and decodes its 200 answer into out.
func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

func getHealth(ctx context.Context, hc *http.Client, base string) (*server.HealthResponse, error) {
	var h server.HealthResponse
	if err := getJSON(ctx, hc, base+"/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// cpuSeconds returns the user+system CPU time the process has consumed,
// from /proc/PID/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unparsable cpu times", pid)
	}
	return (utime + stime) / clockTick, nil
}

// stolenSeconds returns the CPU time the hypervisor has withheld from
// this machine since boot (the steal column of /proc/stat), 0 where the
// kernel does not report it.
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 {
		return 0
	}
	steal, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return steal / clockTick
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MiB, from /proc/PID/status.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// buildServer compiles cmd/pnnserve into the checkout's build directory.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "pnnserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pnnserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building pnnserve: %v\n%s", err, out)
	}
	return bin, nil
}

// findRoot walks up from the working directory to the checkout root:
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}
