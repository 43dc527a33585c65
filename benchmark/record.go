package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// record says what a set of numbers was measured on and with; every
// output file carries one.
type record struct {
	Workload     string         `json:"workload"`
	Commit       string         `json:"commit"`
	GoVersion    string         `json:"go_version"`
	CPU          string         `json:"cpu"`
	NProc        int            `json:"nproc"`
	ServerProcs  int            `json:"server_gomaxprocs"`
	Clients      int            `json:"clients"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Scale        float64        `json:"scale"`
	Sizes        map[string]int `json:"sizes"`
	Facts        int            `json:"facts"`
	ProgramBytes int            `json:"program_bytes"`
	ServerFlags  []string       `json:"wfsd_flags"`
	Samples      map[string]int `json:"samples"`
}

func newRecord(cfg config, r *liveRun) record {
	cpu, nproc := cpuInfo()
	return record{
		Workload:  r.w.name,
		Commit:    commit(cfg.root),
		GoVersion: runtime.Version(),
		CPU:       cpu,
		NProc:     nproc,
		// wfsd sets no GOMAXPROCS and the benchmark passes none: the child
		// sees the CPUs this process may run on, one once main has pinned it.
		ServerProcs:  runtime.NumCPU(),
		Clients:      len(r.w.clients),
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Scale:        cfg.scale,
		Sizes:        r.w.sizes,
		Facts:        r.w.facts,
		ProgramBytes: len(r.w.program),
		ServerFlags:  r.flags,
		Samples:      r.sampleCounts(),
	}
}

// commit is the checkout's HEAD; a driver checkout is not a git
// repository and says so.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "not a git checkout"
	}
	return strings.TrimSpace(string(out))
}

// cpuInfo reads the CPU model and the number of CPUs of the machine
// (not of this process, which main has pinned to one) from /proc/cpuinfo.
func cpuInfo() (model string, n int) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", 0
	}
	model = "unknown"
	for _, line := range strings.Split(string(info), "\n") {
		k, v, _ := strings.Cut(line, ":")
		switch strings.TrimSpace(k) {
		case "processor":
			n++
		case "model name":
			model = strings.TrimSpace(v)
		}
	}
	return model, n
}

// writeJSON writes v to <dir>/<name>, replacing what a previous run left.
func writeJSON(dir, name string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}
