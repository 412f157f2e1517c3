package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestExportLassoFixture regenerates internal/lasso/testdata's catalog
// selection design: the exact standardizable (X, y) matrix selectOutputs
// hands the lasso for the GOFFGRATCH scenario. The fixture lets the
// lasso package benchmark its engines on a real catalog problem —
// small true support, degenerate near-duplicate columns — instead of
// only the synthetic pipeline-shaped design. Guarded by an env var so
// a normal test run never rewrites testdata:
//
//	RCA_EXPORT_FIXTURE=1 go test ./internal/experiments -run TestExportLassoFixture
func TestExportLassoFixture(t *testing.T) {
	if os.Getenv("RCA_EXPORT_FIXTURE") == "" {
		t.Skip("set RCA_EXPORT_FIXTURE=1 to regenerate internal/lasso/testdata")
	}
	s := testSession()
	ctx := context.Background()
	fp, err := s.Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vars := fp.Test.Vars()
	sc := GOFFGRATCH
	v, err := s.Verdict(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	p := selectionProblem(vars, fp.Ensemble, v.ExpRuns)
	n, d, x, y := p.N, p.D, p.X, p.Y
	k := sc.Options().SelectK
	if k <= 0 {
		k = 5
	}
	fix := struct {
		Name string    `json:"name"`
		N    int       `json:"n"`
		D    int       `json:"d"`
		K    int       `json:"k"`
		Vars []string  `json:"vars"`
		X    []float64 `json:"x"`
		Y    []float64 `json:"y"`
	}{Name: sc.Name(), N: n, D: d, K: k, Vars: vars, X: x, Y: y}
	buf, err := json.Marshal(&fix)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("..", "lasso", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "goffgratch.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: n=%d d=%d k=%d", path, n, d, k)
}
