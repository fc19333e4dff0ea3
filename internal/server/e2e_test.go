package server_test

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
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// buildBinaries compiles tsserved and tsload plus any extra commands
// (race-instrumented when this test binary is) into a temp dir and
// returns it.
func buildBinaries(t *testing.T, extra ...string) string {
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
	for _, cmd := range append([]string{"tsserved", "tsload"}, extra...) {
		args := append(buildArgs, "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		build := exec.Command(goTool, args...)
		build.Dir = repoRoot(t)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	return dir
}

// daemon is one running tsserved under test: the process, the loopback
// address parsed from its readiness line, and the channel its remaining
// stdout lines arrive on.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	statsAddr string
	lineCh    chan string
}

// startDaemon launches tsserved on an ephemeral port with the given extra
// flags and waits for its readiness line. The process is killed on test
// cleanup if the test did not already shut it down.
func startDaemon(t *testing.T, dir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(filepath.Join(dir, "tsserved"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting tsserved: %v", err)
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
	wantStats := false
	for _, a := range args {
		wantStats = wantStats || a == "-stats"
	}
	d := &daemon{cmd: cmd, lineCh: lineCh}
	deadline := time.After(30 * time.Second)
	for d.addr == "" || (wantStats && d.statsAddr == "") {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("tsserved exited before announcing its address")
			}
			if rest, found := strings.CutPrefix(line, "tsserved: listening on "); found {
				d.addr = strings.Fields(rest)[0]
			}
			if rest, found := strings.CutPrefix(line, "tsserved: stats on http://"); found {
				d.statsAddr = strings.TrimSuffix(strings.Fields(rest)[0], "/stats")
			}
		case <-deadline:
			t.Fatalf("timed out waiting for tsserved readiness line")
		}
	}
	return d
}

// scrapeMetrics fetches /metrics from a stats address and validates it
// strictly: the Prometheus content type, the text format (every line
// parsed), the naming conventions, and the presence of every required
// family. Returns the raw exposition for artifact capture.
func scrapeMetrics(t *testing.T, statsAddr string, required []string) []byte {
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

// shutdown SIGTERMs the daemon and asserts a clean drain: the drain
// summary line appears and the process exits zero.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling tsserved: %v", err)
	}
	var drained bool
	for line := range d.lineCh {
		if strings.Contains(line, "drained:") {
			drained = true
		}
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("tsserved did not exit cleanly: %v", err)
	}
	if !drained {
		t.Errorf("tsserved never printed its drain summary")
	}
}

// runLoad runs tsload against addr with the given extra flags and asserts
// the zero-failure summary, returning the full output for further
// assertions.
func runLoad(t *testing.T, dir, addr string, extra ...string) []byte {
	t.Helper()
	args := append([]string{"-addr", addr}, extra...)
	load := exec.Command(filepath.Join(dir, "tsload"), args...)
	load.Dir = repoRoot(t)
	out, err := load.CombinedOutput()
	if err != nil {
		t.Fatalf("tsload: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("0 sessions failed")) || !bytes.Contains(out, []byte("records/sec aggregate")) {
		t.Fatalf("tsload output missing success summary:\n%s", out)
	}
	return out
}

// TestEndToEndBinaries is the full-system smoke: build the real tsserved
// and tsload binaries (race-instrumented when this test binary is), start
// the daemon on a loopback port, drive it with 4 concurrent clients, and
// assert a clean drain on SIGTERM. This is the CI race step's end-to-end
// coverage of the wire protocol, the session multiplexing, and the
// shutdown path as shipped, not as linked into a test binary.
func TestEndToEndBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary end-to-end smoke in short mode")
	}
	dir := buildBinaries(t)
	d := startDaemon(t, dir, "-max-sessions", "4", "-stats", "127.0.0.1:0", "-pprof")

	// 4 clients, 4 jobs (2 apps x 2 machines), intra-chip sessions too —
	// launched in the background so /metrics can be scraped mid-load.
	args := []string{"-addr", d.addr, "-clients", "4", "-apps", "apache,oltp",
		"-machine", "both", "-intra", "-target", "4000"}
	load := exec.Command(filepath.Join(dir, "tsload"), args...)
	load.Dir = repoRoot(t)
	var loadOut bytes.Buffer
	load.Stdout = &loadOut
	load.Stderr = &loadOut
	if err := load.Start(); err != nil {
		t.Fatalf("starting tsload: %v", err)
	}
	loadDone := make(chan error, 1)
	go func() { loadDone <- load.Wait() }()

	required := []string{
		"tsserved_sessions_total",
		"tsserved_records_total",
		"tsserved_ingest_bytes_total",
		"tsserved_sessions_active",
		"tsserved_analyzer_slots",
		"tsserved_session_close_seconds",
		"tsserved_uptime_seconds",
	}
	// Scrape under load until ingest is visibly in flight: bytes are
	// counted at the transport, so any streaming session moves them.
	deadline := time.Now().Add(30 * time.Second)
	var midLoad []byte
	for midLoad == nil {
		select {
		case err := <-loadDone:
			t.Fatalf("tsload finished before a mid-load scrape landed: %v\n%s", err, loadOut.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no mid-load scrape showed ingest traffic")
		}
		body := scrapeMetrics(t, d.statsAddr, required)
		if bytes.Contains(body, []byte("tsserved_ingest_bytes_total ")) &&
			!bytes.Contains(body, []byte("tsserved_ingest_bytes_total 0")) {
			midLoad = body
		}
	}
	saveScrape(t, "tsserved-metrics.txt", midLoad)

	// pprof rides the same mux behind -pprof.
	resp, err := http.Get("http://" + d.statsAddr + "/debug/pprof/cmdline")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline: err=%v status=%v", err, resp)
	}
	if resp != nil {
		resp.Body.Close()
	}

	if err := <-loadDone; err != nil {
		t.Fatalf("tsload: %v\n%s", err, loadOut.String())
	}
	out := loadOut.Bytes()
	if !bytes.Contains(out, []byte("0 sessions failed")) || !bytes.Contains(out, []byte("records/sec aggregate")) {
		t.Fatalf("tsload output missing success summary:\n%s", out)
	}
	// A quiesced scrape still parses and carries the final counters.
	scrapeMetrics(t, d.statsAddr, required)
	d.shutdown(t)
}

// TestEndToEndChaos is the fault-tolerance counterpart: the daemon runs
// with -chaos, injecting seeded connection resets and fragmented writes
// into every accepted connection, sized so nearly every session is cut
// mid-stream at least once. tsload's resilient clients must
// absorb all of it — zero failed sessions, with the recovery summary
// showing transport faults were actually taken and survived — and the
// daemon must still drain cleanly afterward.
func TestEndToEndChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary chaos end-to-end in short mode")
	}
	dir := buildBinaries(t)
	// ~6000 records/session is ~24 KB of wire; resets at a mean of 12 KB
	// (offsets in [1, 24 KB)) interrupt almost every session mid-stream.
	d := startDaemon(t, dir, "-max-sessions", "4",
		"-chaos", "seed=11,reset=12000,partial=1", "-resume-grace", "10s")
	out := runLoad(t, dir, d.addr, "-clients", "4", "-apps", "apache,oltp",
		"-machine", "both", "-target", "6000", "-seed", "3")

	// The recovery summary must show the chaos actually bit: transport
	// faults recorded, and at least one session resumed or restarted.
	var dials, transport, resumes, restarts, resumeLost int64
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, "tsload: recovery:") {
			continue
		}
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, "tsload: recovery:"),
			" dials=%d transport=%d busy=%d draining=%d stream=%d resumes=%d restarts=%d resume_lost=%d",
			&dials, &transport, new(int64), new(int64), new(int64), &resumes, &restarts, &resumeLost); err != nil {
			t.Fatalf("parsing recovery line %q: %v", line, err)
		}
	}
	if dials == 0 {
		t.Fatalf("no recovery summary in tsload output:\n%s", out)
	}
	if transport == 0 {
		t.Errorf("chaos run recorded no transport faults (reset injection never bit): %s", out)
	}
	if resumes+restarts == 0 {
		t.Errorf("chaos run never resumed or restarted a session: %s", out)
	}
	if resumeLost != 0 {
		t.Errorf("chaos run lost %d sessions' resume state within the grace window", resumeLost)
	}
	d.shutdown(t)
}

// TestEndToEndArchive closes the live→historical loop as shipped:
// tsserved runs with -archive, tsload drives four sessions through it
// with -json capturing each session's server-returned SessionResult,
// and tsquery then re-analyzes the archived streams offline. Every
// archive must re-analyze to the exact result the server returned for
// the session that produced it — scalars and digests — proving the
// warehouse path (tee → TSW1 archive → manifest → query → Session) is
// byte-faithful to the live ingest path. The store's occupancy metrics
// must ride the daemon's /metrics surface, and the manifest is captured
// as a CI artifact.
func TestEndToEndArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary archive end-to-end in short mode")
	}
	dir := buildBinaries(t, "tsquery")
	archDir := t.TempDir()
	d := startDaemon(t, dir, "-max-sessions", "4", "-archive", archDir, "-stats", "127.0.0.1:0")

	load := exec.Command(filepath.Join(dir, "tsload"),
		"-addr", d.addr, "-clients", "2", "-apps", "apache,oltp",
		"-machine", "both", "-target", "4000", "-seed", "5", "-json")
	load.Dir = repoRoot(t)
	load.Stderr = os.Stderr
	loadOut, err := load.Output()
	if err != nil {
		t.Fatalf("tsload: %v", err)
	}
	var summary struct {
		FailedSessions int `json:"failed_sessions"`
		Sessions       []struct {
			Label  string                `json:"label"`
			Result *server.SessionResult `json:"result"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(loadOut, &summary); err != nil {
		t.Fatalf("parsing tsload -json output: %v\n%s", err, loadOut)
	}
	if summary.FailedSessions != 0 || len(summary.Sessions) != 4 {
		t.Fatalf("tsload summary: %d failed, %d sessions, want 0 failed / 4 sessions\n%s",
			summary.FailedSessions, len(summary.Sessions), loadOut)
	}

	// The store families ride the daemon's /metrics surface, and the
	// warehouse gauge shows every session landed.
	body := scrapeMetrics(t, d.statsAddr, []string{"store_archives", "store_bytes", "store_compactions_total"})
	fams, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("reparsing scrape: %v", err)
	}
	for _, f := range fams {
		if f.Name == "store_archives" && (len(f.Samples) != 1 || f.Samples[0].Value != 4) {
			t.Errorf("store_archives = %+v after 4 sessions, want 4", f.Samples)
		}
	}
	d.shutdown(t)

	// tsquery re-analyzes every archive; each must reproduce the exact
	// SessionResult the server returned for its session.
	query := exec.Command(filepath.Join(dir, "tsquery"), "analyze", "-dir", archDir, "-json")
	query.Stderr = os.Stderr
	queryOut, err := query.Output()
	if err != nil {
		t.Fatalf("tsquery analyze: %v", err)
	}
	var analyzed []struct {
		Entry  store.Entry           `json:"entry"`
		Result *server.SessionResult `json:"result"`
	}
	if err := json.Unmarshal(queryOut, &analyzed); err != nil {
		t.Fatalf("parsing tsquery -json output: %v\n%s", err, queryOut)
	}
	if len(analyzed) != 4 {
		t.Fatalf("tsquery analyzed %d archives, want 4\n%s", len(analyzed), queryOut)
	}
	want := make(map[string]*server.SessionResult, len(summary.Sessions))
	for _, sess := range summary.Sessions {
		want[sess.Label] = sess.Result
	}
	for _, a := range analyzed {
		w, ok := want[a.Entry.Label]
		if !ok {
			t.Errorf("archive %s carries label %q with no matching session", a.Entry.ID, a.Entry.Label)
			continue
		}
		if !reflect.DeepEqual(a.Result, w) {
			t.Errorf("archive %s (%s): offline analysis differs from server result\n got: %+v\nwant: %+v",
				a.Entry.ID, a.Entry.Label, a.Result, w)
		}
		delete(want, a.Entry.Label)
	}
	for label := range want {
		t.Errorf("session %q was never archived", label)
	}

	manifest, err := os.ReadFile(filepath.Join(archDir, "manifest.json"))
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	saveScrape(t, "archive-manifest.json", manifest)
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
