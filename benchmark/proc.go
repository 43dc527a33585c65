package main

import (
	"bytes"
	"fmt"
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
)

// buildDir is where everything the benchmark writes lives: the wfsd
// binary, data directories and span files. It sits inside the checkout
// (the driver's CARGO_TARGET_DIR convention) and is ignored by git.
const buildDir = ".bench_build"

// buildServer compiles cmd/wfsd from the checkout's own source; outside
// a checkout of the repository there is nothing to build and it fails.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "wfsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wfsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/wfsd: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every live wfsd so that no exit path leaves one behind.
var children struct {
	sync.Mutex
	live map[*server]struct{}
}

func killAll() {
	children.Lock()
	live := make([]*server, 0, len(children.live))
	for s := range children.live {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// server is one wfsd child process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr bytes.Buffer
	exited chan struct{}
	once   sync.Once
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs wfsd and returns once it answers /v1/healthz (which,
// with -data-dir, is after recovery has replayed the log).
func startServer(bin string, flags []string, hc *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	s.cmd.Stderr = &s.stderr
	// The child dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*server]struct{})
	}
	children.live[s] = struct{}{}
	children.Unlock()
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed child carries no information
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("wfsd exited during start-up:\n%s", s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("wfsd not healthy after 60s:\n%s", s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the process has ended.
func (s *server) kill() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // already exited is fine
		<-s.exited
		children.Lock()
		delete(children.live, s)
		children.Unlock()
	})
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// peakRSSMB reads VmHWM, the high-water mark of the resident set.
func (s *server) peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/" + strconv.Itoa(s.pid()) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.pid())
}

// cpuSeconds reads utime+stime from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(s.pid()) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime field 14, stime field 15.
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", s.pid())
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", s.pid())
	}
	const clkTck = 100 // USER_HZ on every Linux this runs on
	return (ut + st) / clkTck, nil
}
