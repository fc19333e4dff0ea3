// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload with a seed, checks every op's output
// against a reference built by a different path, and prints its metrics
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// additionally records spans around every call into a layer, replays the
// workload's recorded inputs through each layer alone, and prints the
// per-layer set with a cost ledger. See README.md for the workloads and
// the metric definitions.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload sweep|query --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports: its op accounting and metrics.
type outcome struct {
	ops     opLog
	metrics map[string]metric
	// notes are informational lines (ledger, cross-checks) printed before
	// the result; they are outside the metric set.
	notes []string
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// dir is this run's private scratch directory inside the checkout
	// (stores); removed at exit. Span dumps go beside it.
	dir string
	// host times the host-speed kernel between ops (see hostspeed.go).
	host *hostSpeed
}

var workloads = map[string]func(config) (*outcome, error){
	"sweep": runSweep,
	"query": runQuery,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep or query")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "nominal measured seconds; sizes the fixed op list")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build/runs", "directory for run scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload sweep|query, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, fmt.Sprintf("%s-%d-", *name, *seed))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	if cfg.host, err = newHostSpeed(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.host.sample()

	info := newRunnerInfo(cfg, *out)
	ticks := cpuTicks()
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	info.StealShare = stealShare(ticks, cpuTicks())
	info.ProbeEndMs = cfg.host.ms[len(cfg.host.ms)-1]
	info.HostFactor = cfg.host.factor()
	if err := writeRunnerLine(stdout, info); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	if res.ops.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: first failed op: %v\n", *name, res.ops.firstErr)
	}
	if res.ops.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no ops\n", *name)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.ops.failed == 0, res.ops.attempted, res.ops.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runnerInfo records the machine and settings a run was made on, so a
// reader can tell a shifted set of runs from a shifted program. It is
// printed as its own line, outside the metric set.
type runnerInfo struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	StoreDir    string `json:"store_dir"`
	StoreMemory bool   `json:"store_memory_backed"`
	FlushPolicy string `json:"store_flush_policy"`
	// ProbeStartMs and ProbeEndMs are the host-speed kernel's first and
	// last samples (thread CPU ms), HostFactor the run's host factor.
	ProbeStartMs float64 `json:"host_probe_start_ms"`
	ProbeEndMs   float64 `json:"host_probe_end_ms"`
	HostFactor   float64 `json:"host_factor"`
	// StealShare is the share of the machine's busy CPU time during the
	// run that the hypervisor gave to other guests (/proc/stat steal):
	// wall-clock metrics stretch with it. -1 when unavailable.
	StealShare float64 `json:"host_steal_share"`
}

func newRunnerInfo(cfg config, out string) runnerInfo {
	abs, _ := filepath.Abs(out)
	return runnerInfo{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		StoreDir:     abs,
		StoreMemory:  memoryBacked(out),
		FlushPolicy:  "fsync per archive commit (file, directory and manifest; store.Writer.Commit)",
		ProbeStartMs: cfg.host.ms[0],
	}
}

func writeRunnerLine(w io.Writer, info runnerInfo) error {
	raw, err := json.Marshal(map[string]runnerInfo{"runner": info})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}

// memoryBacked reports whether dir lives on tmpfs.
func memoryBacked(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	return st.Type == tmpfsMagic
}

// cpuTicks returns the machine-wide CPU tick counters of /proc/stat
// (user nice system idle iowait irq softirq steal), or nil.
func cpuTicks() []uint64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	ticks := make([]uint64, 8)
	for i := range ticks {
		if ticks[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
			return nil
		}
	}
	return ticks
}

// stealShare is steal ticks over busy ticks (all but idle and iowait)
// between two cpuTicks readings.
func stealShare(a, b []uint64) float64 {
	if a == nil || b == nil {
		return -1
	}
	var busy uint64
	for i := range a {
		if i != 3 && i != 4 {
			busy += b[i] - a[i]
		}
	}
	if busy == 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(busy)
}
