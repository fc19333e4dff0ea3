// Command tsbench runs (or parses) the repository's benchmark suite and
// writes a BENCH_<n>.json trajectory artifact: one JSON document per
// invocation holding every benchmark's ns/op and custom metrics
// (misses/sec, covered_%, coherence shares, ...). Successive artifacts
// (BENCH_1.json, BENCH_2.json, ...) form the perf trajectory of the
// repository over time; CI runs it on every push and uploads the result.
//
// Usage:
//
//	tsbench                     # runs `go test -short -bench=. -benchtime=1x ./...`
//	tsbench -in bench.txt       # parses an existing benchmark output instead
//	tsbench -out results.json   # explicit output path (default BENCH_<n>.json)
//	tsbench -bench Simulation -benchtime 5x -count 3   # forwarded to go test
//	tsbench -in bench.txt -gate BENCH_1.json           # regression gate against a baseline
//
// -gate turns the run into a regression gate: after writing the
// artifact, the named throughput keys (-gate-keys, default the ingest
// and streaming-collect rates) are compared against the baseline
// artifact, and the process exits 1 if any regressed by more than
// -gate-band (default 25% — wide enough for shared-runner noise on 1x
// smoke iterations, tight enough to catch a real data-path regression).
// Improvements and new benchmarks never fail the gate; a tracked key
// missing from the current run does, so a benchmark silently dropping
// out of the suite cannot pass.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
)

// BenchResult is one benchmark line, parsed.
type BenchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the whole trajectory record. GoMaxProcs and NumCPU pin
// the parallelism the run had available, so intra-run scaling curves
// (BenchmarkStreamingCollect, the ingest benchmarks) are interpretable
// across runners: parity on a 1-core runner and >1x on a 16-core one
// are both expected shapes, distinguishable only by this metadata.
type Artifact struct {
	Timestamp  string        `json:"timestamp"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Command    string        `json:"command,omitempty"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// benchLine matches `BenchmarkX-8   	  10	 123 ns/op	 4 B/op	 5 allocs/op	 6.7 label`.
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)
	procSuffix = regexp.MustCompile(`-\d+$`)
)

func parseBench(r io.Reader) []BenchResult {
	var out []BenchResult
	buf, err := io.ReadAll(r)
	if err != nil {
		fatalf("reading benchmark output: %v", err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		res := BenchResult{
			Name:       procSuffix.ReplaceAllString(m[1], ""),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			default:
				res.Metrics[unit] = v
			}
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		out = append(out, res)
	}
	return out
}

// nextArtifactPath finds the first unused BENCH_<n>.json in dir. Any stat
// error other than "exists" stops the search (the subsequent write will
// report the real problem).
func nextArtifactPath(dir string) string {
	for n := 1; ; n++ {
		p := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(p); err != nil {
			return p
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tsbench: "+format+"\n", args...)
	os.Exit(1)
}

// defaultGateKeys are the throughput metrics the regression gate tracks
// by default: the wire-ingest hot path and the end-to-end streaming
// collection — the two rates every perf-focused PR is trying to move.
const defaultGateKeys = "BenchmarkIngestServer:records/sec,BenchmarkStreamingCollect:misses/sec"

// gate compares the named higher-is-better metrics of the current run
// against a baseline artifact and returns the regressions (worse by
// more than band, a fraction). Keys are "BenchName:metric" pairs.
// Benchmarks absent from the baseline are skipped (a new benchmark has
// no trajectory yet); keys absent from the current run are regressions
// by definition.
func gate(baselinePath string, band float64, keys string, cur []BenchResult) []string {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		fatalf("gate baseline: %v", err)
	}
	var base Artifact
	if err := json.Unmarshal(buf, &base); err != nil {
		fatalf("gate baseline %s: %v", baselinePath, err)
	}
	metric := func(rs []BenchResult, bench, m string) (float64, bool) {
		for _, r := range rs {
			// Sub-benchmark names (Benchmark/sub) compare on the full name.
			if r.Name == bench {
				v, ok := r.Metrics[m]
				return v, ok
			}
		}
		return 0, false
	}
	var regressions []string
	for _, key := range strings.Split(keys, ",") {
		key = strings.TrimSpace(key)
		bench, m, ok := strings.Cut(key, ":")
		if !ok {
			fatalf("gate key %q: want BenchName:metric", key)
		}
		want, ok := metric(base.Benchmarks, bench, m)
		if !ok {
			fmt.Printf("tsbench: gate %s: not in baseline %s, skipping\n", key, baselinePath)
			continue
		}
		got, ok := metric(cur, bench, m)
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("%s: present in baseline (%.4g) but missing from this run", key, want))
			continue
		}
		floor := want * (1 - band)
		verdict := "ok"
		if got < floor {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.4g, below the noise band floor %.4g (baseline %.4g, band %.0f%%)",
					key, got, floor, want, 100*band))
		}
		fmt.Printf("tsbench: gate %-45s %12.4g vs baseline %12.4g (floor %12.4g) %s\n",
			key, got, want, floor, verdict)
	}
	return regressions
}

func main() {
	in := flag.String("in", "", "parse this existing `go test -bench` output instead of running the suite")
	out := flag.String("out", "", "output JSON path (default: next unused BENCH_<n>.json)")
	dir := flag.String("dir", ".", "directory for auto-numbered artifacts")
	benchRe := flag.String("bench", ".", "benchmark pattern forwarded to go test")
	benchtime := flag.String("benchtime", "1x", "benchtime forwarded to go test")
	count := flag.Int("count", 1, "count forwarded to go test")
	long := flag.Bool("long", false, "run without -short (includes the simulation-heavy benchmarks)")
	gateBase := flag.String("gate", "", "baseline BENCH_<n>.json to gate against: exit 1 if a tracked throughput key regresses past the noise band")
	gateBand := flag.Float64("gate-band", 0.25, "allowed fractional regression before the gate fails")
	gateKeys := flag.String("gate-keys", defaultGateKeys, "comma-separated BenchName:metric throughput keys the gate tracks")
	flag.Parse()

	if *gateBand < 0 || *gateBand >= 1 {
		fatalf("-gate-band must be in [0, 1)")
	}

	if err := cli.Positive("-count", *count); err != nil {
		fatalf("%v", err)
	}

	art := Artifact{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf("%v", err)
		}
		art.Benchmarks = parseBench(f)
		f.Close()
		art.Command = "parsed from " + *in
	} else {
		args := []string{"test", "-run", "^$", "-bench", *benchRe,
			"-benchtime", *benchtime, "-count", strconv.Itoa(*count), "./..."}
		if !*long {
			args = append([]string{"test", "-short"}, args[1:]...)
		}
		// SIGINT/SIGTERM cancels the suite: the go test child is killed
		// and no partial artifact is written.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		cmd := exec.CommandContext(ctx, "go", args...)
		cmd.Stderr = os.Stderr
		outBuf, err := cmd.Output()
		if errors.Is(ctx.Err(), context.Canceled) {
			fmt.Fprintln(os.Stderr, "tsbench: interrupted, benchmark run cancelled")
			os.Exit(130)
		}
		if err != nil {
			fatalf("go test: %v", err)
		}
		art.Benchmarks = parseBench(strings.NewReader(string(outBuf)))
		art.Command = "go " + strings.Join(args, " ")
	}

	path := *out
	if path == "" {
		path = nextArtifactPath(*dir)
	}
	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("tsbench: wrote %d benchmark results to %s\n", len(art.Benchmarks), path)

	if *gateBase != "" {
		if regressions := gate(*gateBase, *gateBand, *gateKeys, art.Benchmarks); len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "tsbench: gate: %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Println("tsbench: gate passed")
	}
}
