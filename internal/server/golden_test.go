package server_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	tempstream "repro"
	"repro/internal/server"
)

// Golden analysis fixture: testdata/golden_results.json holds the
// server.ResultOf summary — every scalar plus the window, state,
// instance and reuse digests — of each app × machine × context at one
// fixed request. It is the analysis twin of the workload package's
// golden trace digests: the equivalence sweeps prove that every path
// (batch, streaming, wire, store) agrees, and this fixture proves that
// they all still agree with the values they had when it was written, so
// a fault every path shares (an off-by-one in the derivation walk, a
// digram-index slip) fails here.
//
// Regenerate (only when an analysis change is intended and reviewed):
//
//	go test ./internal/server -run TestGoldenResults -update

var updateGolden = flag.Bool("update", false, "rewrite the golden analysis results")

// goldenRequest is the fixed request every fixture entry comes from.
func goldenRequest(app tempstream.App) tempstream.Request {
	return tempstream.Request{App: app, Scale: tempstream.Small, Seed: 4242, TargetMisses: 20000}
}

func goldenResultsKey(app tempstream.App, ctx tempstream.Context) string {
	return app.String() + "/" + ctx.String()
}

// runGoldenResults runs app's fixed request and returns its three
// contexts' results, keyed like the fixture, after checking each against
// the separate-pass ResultOf reference.
func runGoldenResults(t *testing.T, app tempstream.App) map[string]*server.SessionResult {
	t.Helper()
	exp, err := tempstream.NewRunner().Run(context.Background(), goldenRequest(app))
	if err != nil {
		t.Fatalf("%v: Run: %v", app, err)
	}
	out := map[string]*server.SessionResult{}
	for _, ctx := range tempstream.Contexts() {
		checkResultOf(t, goldenResultsKey(app, ctx), exp.Context(ctx))
		out[goldenResultsKey(app, ctx)] = server.ResultOf(exp.Context(ctx))
	}
	return out
}

// TestGoldenResults checks every app × context analysis result against
// the committed fixture (or, with -update, rewrites it).
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full golden analysis sweep in short mode")
	}
	path := filepath.Join("testdata", "golden_results.json")
	if *updateGolden {
		got := map[string]*server.SessionResult{}
		for _, app := range tempstream.Apps() {
			for k, r := range runGoldenResults(t, app) {
				got[k] = r
			}
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden results to %s", len(got), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden results (run with -update to generate): %v", err)
	}
	var want map[string]*server.SessionResult
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden results: %v", err)
	}
	if n := len(tempstream.Apps()) * len(tempstream.Contexts()); len(want) != n {
		t.Fatalf("fixture holds %d results, want %d (run with -update)", len(want), n)
	}
	for _, app := range tempstream.Apps() {
		t.Run(app.String(), func(t *testing.T) {
			t.Parallel()
			for k, got := range runGoldenResults(t, app) {
				w, ok := want[k]
				if !ok {
					t.Errorf("no golden result for %s (run with -update)", k)
					continue
				}
				// Compare through JSON: the fixture's own encoding, so a
				// float that round-trips differently cannot pass or fail
				// by representation alone.
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(w)
				if string(gotJSON) != string(wantJSON) {
					t.Errorf("%s drifted from the golden fixture:\n got %s\nwant %s", k, gotJSON, wantJSON)
				}
			}
		})
	}
}
