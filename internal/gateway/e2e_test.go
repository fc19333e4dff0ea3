package gateway_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
)

// buildFleetBinaries compiles tsserved, tsgate, and tsload
// (race-instrumented when this test binary is) into a temp dir.
func buildFleetBinaries(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	dir := t.TempDir()
	buildArgs := []string{"build"}
	if raceEnabled {
		buildArgs = append(buildArgs, "-race")
	}
	for _, cmd := range []string{"tsserved", "tsgate", "tsload"} {
		args := append(buildArgs, "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		build := exec.Command(goTool, args...)
		build.Dir = repoRoot(t)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	return dir
}

// proc is one running fleet binary under test: the process, the
// addresses parsed from its readiness lines, and its remaining stdout.
type proc struct {
	name      string
	cmd       *exec.Cmd
	addr      string // ingest address
	statsAddr string // stats HTTP address (tsgate only)
	lineCh    chan string
}

// startProc launches one binary and waits for its "<name>: listening on"
// readiness line (plus the stats line when wantStats is set).
func startProc(t *testing.T, dir, name string, wantStats bool, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 16)
	go func() {
		for sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	p := &proc{name: name, cmd: cmd, lineCh: lineCh}
	deadline := time.After(30 * time.Second)
	for p.addr == "" || (wantStats && p.statsAddr == "") {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("%s exited before announcing its address", name)
			}
			if rest, found := strings.CutPrefix(line, name+": listening on "); found {
				p.addr = strings.Fields(rest)[0]
			}
			if rest, found := strings.CutPrefix(line, name+": stats on http://"); found {
				p.statsAddr = strings.TrimSuffix(strings.Fields(rest)[0], "/stats")
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s readiness line", name)
		}
	}
	return p
}

// shutdown SIGTERMs the process and asserts a clean drain.
func (p *proc) shutdown(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling %s: %v", p.name, err)
	}
	var drained bool
	for line := range p.lineCh {
		if strings.Contains(line, "drained:") {
			drained = true
		}
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%s did not exit cleanly: %v", p.name, err)
	}
	if !drained {
		t.Errorf("%s never printed its drain summary", p.name)
	}
}

// scrapeFleetMetrics fetches the gateway's /metrics and validates it
// strictly: content type, text format, naming conventions, and the
// presence of every required tsgate family. Returns the raw exposition.
func scrapeFleetMetrics(t *testing.T, statsAddr string, required []string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + statsAddr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want the 0.0.4 text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	fams, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, body)
	}
	if viol := obs.LintNames(fams); len(viol) != 0 {
		t.Errorf("/metrics naming violations: %v", viol)
	}
	have := make(map[string]bool, len(fams))
	for _, f := range fams {
		have[f.Name] = true
	}
	for _, name := range required {
		if !have[name] {
			t.Errorf("/metrics is missing required family %s", name)
		}
	}
	return body
}

// saveScrape writes a captured exposition under $E2E_METRICS_DIR (the CI
// artifact directory) when set; otherwise it is a no-op.
func saveScrape(t *testing.T, name string, body []byte) {
	t.Helper()
	dir := os.Getenv("E2E_METRICS_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("creating %s: %v", dir, err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
		t.Fatalf("writing scrape artifact: %v", err)
	}
}

// fleetStats fetches and decodes the gateway's /stats snapshot.
func fleetStats(t *testing.T, statsAddr string) gateway.FleetStats {
	t.Helper()
	resp, err := http.Get("http://" + statsAddr + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st gateway.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	return st
}

// TestEndToEndFleetChaos is the fleet acceptance test: three tsserved
// daemons behind a tsgate, a full tsload run in flight, and one backend
// SIGKILLed while it holds sessions (frozen first, so that it still
// holds them at the kill). The load must finish with zero
// failed sessions (the gateway replays the dead backend's sessions on
// survivors), the fleet stats must show the reroutes and the dead
// backend's open circuit, and the gateway plus the surviving daemons
// must still drain cleanly.
func TestEndToEndFleetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fleet end-to-end chaos in short mode")
	}
	dir := buildFleetBinaries(t)

	backends := make(map[string]*proc, 3)
	var addrs []string
	for i := 0; i < 3; i++ {
		b := startProc(t, dir, "tsserved", false,
			"-addr", "127.0.0.1:0", "-max-sessions", "4", "-name", fmt.Sprintf("b%d", i+1))
		backends[b.addr] = b
		addrs = append(addrs, b.addr)
	}
	gw := startProc(t, dir, "tsgate", true,
		"-addr", "127.0.0.1:0", "-stats", "127.0.0.1:0",
		"-backends", strings.Join(addrs, ","))
	waitFor(t, "all three backends healthy", func() bool {
		return fleetStats(t, gw.statsAddr).HealthyBackends == 3
	})

	// Launch the load against the gateway; -json puts the summary alone
	// on stdout.
	load := exec.Command(filepath.Join(dir, "tsload"),
		"-addr", gw.addr, "-clients", "4", "-apps", "apache,oltp",
		"-machine", "both", "-target", "6000", "-seed", "3", "-json")
	load.Dir = repoRoot(t)
	var stdout, stderr bytes.Buffer
	load.Stdout = &stdout
	load.Stderr = &stderr
	if err := load.Start(); err != nil {
		t.Fatalf("starting tsload: %v", err)
	}
	loadDone := make(chan error, 1)
	go func() { loadDone <- load.Wait() }()

	// Wait until a backend actually holds sessions, then SIGKILL it. Its
	// sessions could finish between a stats read and the kill, leaving
	// nothing to reroute, so the candidate is frozen (SIGSTOP) and its
	// count read again once the responses already in flight have landed:
	// the gateway counts a session off a backend only after the backend
	// answers, so a frozen backend's count cannot fall. A candidate whose
	// count did fall is thawed (SIGCONT) and the wait goes on.
	const settle = 100 * time.Millisecond
	active := func(addr string) int {
		for _, b := range fleetStats(t, gw.statsAddr).Backends {
			if b.Addr == addr {
				return b.ActiveSessions
			}
		}
		return 0
	}
	var victim string
	waitFor(t, "a backend to hold sessions", func() bool {
		select {
		case err := <-loadDone:
			t.Fatalf("tsload finished before the kill: %v\n%s%s", err, stdout.String(), stderr.String())
		default:
		}
		for _, b := range fleetStats(t, gw.statsAddr).Backends {
			if b.ActiveSessions == 0 {
				continue
			}
			p := backends[b.Addr].cmd.Process
			if err := p.Signal(syscall.SIGSTOP); err != nil {
				t.Fatalf("SIGSTOP backend %s: %v", b.Addr, err)
			}
			time.Sleep(settle)
			if active(b.Addr) > 0 {
				victim = b.Addr
				return true
			}
			if err := p.Signal(syscall.SIGCONT); err != nil {
				t.Fatalf("SIGCONT backend %s: %v", b.Addr, err)
			}
			t.Logf("backend %s had no sessions left once frozen; thawed it", b.Addr)
			return false
		}
		return false
	})
	if err := backends[victim].cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL backend %s: %v", victim, err)
	}
	t.Logf("killed backend %s mid-load", victim)

	// Mid-load, one backend freshly dead: /metrics must still be valid
	// exposition with the full tsgate catalog.
	fleetRequired := []string{
		"tsgate_sessions_total",
		"tsgate_sessions_completed_total",
		"tsgate_sessions_rerouted_total",
		"tsgate_healthy_backends",
		"tsgate_replay_ring_frames",
		"tsgate_backend_circuit_state",
		"tsgate_backend_active_sessions",
		"tsgate_backend_routed_total",
		"tsgate_probe_seconds",
	}
	midLoad := scrapeFleetMetrics(t, gw.statsAddr, fleetRequired)
	saveScrape(t, "tsgate-metrics.txt", midLoad)

	if err := <-loadDone; err != nil {
		t.Fatalf("tsload failed: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	var summary struct {
		Jobs           int     `json:"jobs"`
		FailedSessions int     `json:"failed_sessions"`
		Records        int64   `json:"records"`
		RecordsPerSec  float64 `json:"records_per_sec"`
		Recovery       *struct {
			Transport int64 `json:"transport"`
			Resumes   int64 `json:"resumes"`
			Restarts  int64 `json:"restarts"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &summary); err != nil {
		t.Fatalf("parsing tsload -json summary %q: %v", stdout.String(), err)
	}
	if summary.FailedSessions != 0 {
		t.Errorf("failed_sessions = %d, want 0\nstderr:\n%s", summary.FailedSessions, stderr.String())
	}
	if summary.Jobs == 0 || summary.Records == 0 || summary.RecordsPerSec <= 0 {
		t.Errorf("implausible summary: %+v", summary)
	}

	st := fleetStats(t, gw.statsAddr)
	if st.ReroutedSessions == 0 {
		t.Errorf("fleet stats show no rerouted sessions after the kill: %+v", st)
	}
	if st.FailedSessions != 0 {
		t.Errorf("fleet stats show %d failed sessions, want 0", st.FailedSessions)
	}
	for _, b := range st.Backends {
		if b.Addr == victim && b.Circuit == gateway.CircuitClosed {
			t.Errorf("dead backend %s circuit still closed: %+v", victim, b)
		}
	}
	// Quiesced, the exposition still parses and the dead backend reads as
	// an open circuit on /metrics too.
	final := scrapeFleetMetrics(t, gw.statsAddr, fleetRequired)
	fams, _ := obs.ParseText(bytes.NewReader(final))
	for _, f := range fams {
		if f.Name != "tsgate_backend_circuit_state" {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels["backend"] == victim && s.Value == 0 {
				t.Errorf("circuit_state{backend=%q} = 0 on /metrics, want open for the killed backend", victim)
			}
		}
	}

	// Everyone left standing drains cleanly.
	gw.shutdown(t)
	for addr, b := range backends {
		if addr != victim {
			b.shutdown(t)
		}
	}
}

// repoRoot locates the module root (two levels above this package).
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found from %s", wd)
	}
	return root
}
