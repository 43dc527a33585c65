package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bench"
)

// TestReaderBesideWriterOnOneCPU: on a host that gives wfsd one CPU and
// no GOMAXPROCS, a point query beside a CPU-bound writer is answered in
// about its own cost, not after the writer's scheduler slice. With a
// single P the writer holds it until preemption (~10 ms) and the query
// waits that long to be read off its socket; wfsd's second P picks it up
// at once.
func TestReaderBesideWriterOnOneCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real wfsd and runs a writer beside a reader")
	}
	bin := filepath.Join(t.TempDir(), "wfsd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	addr := freeAddr(t)
	base := "http://" + addr

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = &stderr
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	if err := startOnOneCPU(cmd); errors.Is(err, errNoAffinity) {
		t.Skipf("cannot pin a child to one CPU: %v", err)
	} else if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("wfsd stderr:\n%s", stderr.String())
		}
	})
	waitHealthy(t, base)

	// 2000 win-move chains of 50 edges; the writer toggles the mid edge
	// of chain 0, the reader asks for losing nodes of the others.
	postJSON(t, base+"/v1/sessions", map[string]any{
		"name": "s", "program": bench.UpdateFamily(2000, 50),
	}, nil)
	var qr struct {
		Answer string `json:"answer"`
	}
	postJSON(t, base+"/v1/sessions/s/query", map[string]any{"query": "? win(n1_0)."}, &qr)
	if qr.Answer != "false" {
		t.Fatalf("win(n1_0) = %s before any write, want false", qr.Answer)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes int
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		edge := map[string]any{"facts": []map[string]any{{"pred": "move", "args": []string{"n0_25", "n0_26"}}}}
		for {
			for _, path := range []string{"/retract", "/facts"} {
				select {
				case <-stop:
					return
				default:
				}
				if err := tryPostJSON(base+"/v1/sessions/s"+path, edge, nil); err != nil {
					writeErr = err
					return
				}
				writes++
			}
		}
	}()

	// The reader pauses 5 ms after each reply, longer than the gap
	// between two mutations and far shorter than one, so nearly every
	// query arrives while a mutation is being evaluated.
	const samples = 100
	lat := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		time.Sleep(5 * time.Millisecond)
		q := map[string]any{"query": fmt.Sprintf("? win(n%d_%d).", 1+i%1999, 2*(i%25))}
		start := time.Now()
		postJSON(t, base+"/v1/sessions/s/query", q, &qr)
		lat = append(lat, time.Since(start))
		if qr.Answer != "false" {
			t.Fatalf("%v = %s, want false (an even-position node of an untouched chain)", q["query"], qr.Answer)
		}
	}
	close(stop)
	wg.Wait()
	if writeErr != nil {
		t.Fatalf("writer: %v", writeErr)
	}
	if writes < 4 {
		t.Fatalf("only %d writes beside %d reads: the reader never met a writer", writes, samples)
	}
	// With one P nearly every read waits out the writer's slice, ~10 ms
	// (p50 ~12 ms, p90 ~20 ms). With two the median read takes ~1 ms; the
	// tail follows the host's own scheduling (p90 2.7–6.8 ms on a shared
	// two-vCPU VM), so the median is what the assertion reads.
	slices.Sort(lat)
	p50, p90 := lat[samples/2], lat[samples*9/10]
	t.Logf("%d reads beside %d writes: p50 %v, p90 %v", samples, writes, p50, p90)
	if p50 >= 4*time.Millisecond {
		t.Errorf("point query p50 %v beside a writer on one CPU, want under 4ms (p90 %v)", p50, p90)
	}
}

// errNoAffinity marks a host where a thread's CPU affinity cannot be
// read or set.
var errNoAffinity = errors.New("no CPU affinity")

// startOnOneCPU starts cmd bound to one CPU, the last the test may run
// on. Affinity is a property of a thread and a child inherits its
// forking thread's, so the child is started from a locked thread whose
// mask was narrowed first. The goroutine exits still locked, and the
// runtime then ends the thread instead of reusing it with that mask.
func startOnOneCPU(cmd *exec.Cmd) error {
	errc := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		var mask [16]uint64 // cpu_set_t: 1024 CPUs
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
			errc <- fmt.Errorf("%w: sched_getaffinity: %v", errNoAffinity, errno)
			return
		}
		last := -1
		for i, word := range mask {
			if word != 0 {
				last = 64*i + 63 - bits.LeadingZeros64(word)
			}
		}
		if last < 0 {
			errc <- fmt.Errorf("%w: sched_getaffinity: empty mask", errNoAffinity)
			return
		}
		mask = [16]uint64{}
		mask[last/64] = 1 << (last % 64)
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
			errc <- fmt.Errorf("%w: sched_setaffinity: %v", errNoAffinity, errno)
			return
		}
		if err := cmd.Start(); err != nil {
			errc <- fmt.Errorf("start wfsd: %w", err)
			return
		}
		errc <- nil
	}()
	return <-errc
}
