package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden artifact files")

// goldenSpec is the pinned quick-profile artifact subset: small enough to
// run on every change, wide enough that a drift in the trace generators,
// the workload classes, the middleware simulators, the campaign keys or the
// store-derived builders shows up as a golden diff.
func goldenSpec() (Profile, ArtifactOptions) {
	p := campaign.Quick()
	return p, ArtifactOptions{Spec: MatrixSpec{
		Traces:     []string{"seti", "g5klyo"},
		Bots:       []string{"SMALL"},
		Strategies: []core.Strategy{core.DefaultStrategy()},
	}}
}

// TestQuickArtifactsGolden pins the store-derived quick-profile artifacts —
// the matrix, Figure 1 and Table 2 — against golden files, so builders
// reading from the shared ResultStore cannot silently drift between PRs.
// Regenerate with: go test ./internal/experiments -run Golden -update-golden
func TestQuickArtifactsGolden(t *testing.T) {
	p, opts := goldenSpec()
	a, _, err := BuildArtifacts(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, v any) {
		t.Helper()
		got, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareGolden(t, name+".golden.json", append(got, '\n'))
	}
	check("matrix", a.Matrix)
	check("figure1", a.Figure1)
	check("table2", a.Table2)
}

// compareGolden checks got against testdata/name, or rewrites the file
// under -update-golden.
func compareGolden(t *testing.T, name string, got []byte) bool {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update-golden to create)", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file %s;\nif the change is intended, regenerate with -update-golden.\ngot %d bytes, want %d bytes",
			name, path, len(got), len(want))
		return false
	}
	return true
}

// TestArtifactManifestGolden pins, for the tiny spec with ablations and the
// comparison on, what spequlos-bench writes and in what order: the SHA-256
// of every file (a chart with nothing to draw is listed as skipped), the
// job-key sequence PlanArtifacts plans, and the Timings names in order.
// Regenerate with: go test ./internal/experiments -run Manifest -update-golden
func TestArtifactManifestGolden(t *testing.T) {
	p, opts := tiny(), tinyArtifactOpts()
	opts.Store = campaign.NewResultStore()
	a, _, err := BuildArtifacts(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var m bytes.Buffer
	keys := sha256.New()
	plan := PlanArtifacts(p, opts)
	for _, j := range plan.Jobs() {
		fmt.Fprintln(keys, j.Key())
	}
	fmt.Fprintf(&m, "plan\t%d jobs\t%x\n", plan.Len(), keys.Sum(nil))
	for _, tm := range a.Timings {
		fmt.Fprintf(&m, "timing\t%s\n", tm.Name)
	}
	for _, f := range a.Files() {
		data, err := f.Content()
		if err != nil {
			fmt.Fprintf(&m, "skip\t%s\n", f.Name)
			continue
		}
		fmt.Fprintf(&m, "file\t%s\t%x\n", f.Name, sha256.Sum256(data))
	}
	fmt.Fprintf(&m, "file\tsummary.txt\t%x\n", sha256.Sum256([]byte(a.Summary())))
	if !compareGolden(t, "artifacts.manifest", m.Bytes()) {
		t.Logf("got manifest:\n%s", m.String())
	}
}
