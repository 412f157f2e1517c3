package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/artifact"
)

// storeServer boots a server over the disk-backed store at dir, on the
// corpus the parent-record fixture was rendered from.
func storeServer(t *testing.T, dir string, hook func(string)) *Server {
	t.Helper()
	store, err := rca.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	session := rca.NewSession(rca.CorpusConfig{AuxModules: 10, Seed: 5},
		rca.WithEnsembleSize(8), rca.WithExpSize(3), rca.WithArtifacts(store))
	srv := New(Config{Session: session, Artifacts: store, RunHook: hook})
	t.Cleanup(srv.Close)
	return srv
}

// TestOutcomeStoreRoundTrip writes outcomes through one disk-backed
// store handle and reads them back through another: rates come back
// bit for bit, the text byte for byte and the completion time Equal.
func TestOutcomeStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := storeServer(t, dir, nil)
	rates := []float64{1.0 / 3, 0, math.Copysign(0, -1), 1, 5e-324}
	text := "experiment       GOFFGRATCH\nUF-ECT failure   33%\n\tquotes \" backslash \\ <html> & é\n"
	want := make([]Outcome, len(rates))
	for i, rate := range rates {
		want[i] = Outcome{
			Fingerprint: fmt.Sprintf("fp%d", i),
			Name:        "GOFFGRATCH",
			FailureRate: rate,
			BugLocated:  i%2 == 0,
			Text:        text,
			CompletedAt: time.Now().UTC(),
		}
		w.putOutcome(&want[i])
	}
	r := storeServer(t, dir, nil)
	for _, o := range want {
		got, ok := r.storedOutcome(o.Fingerprint)
		if !ok {
			t.Fatalf("outcome %s missing", o.Fingerprint)
		}
		if got.Fingerprint != o.Fingerprint || got.Name != o.Name || got.BugLocated != o.BugLocated ||
			math.Float64bits(got.FailureRate) != math.Float64bits(o.FailureRate) ||
			got.Text != o.Text || !got.CompletedAt.Equal(o.CompletedAt) {
			t.Fatalf("outcome round trip:\n got %+v\nwant %+v", got, o)
		}
	}
}

// TestParentOutcomeReadsAsMiss reads an outcome blob written by the
// store's previous binary record codec (testdata/parent-records/outcome,
// the framed file rcad stored for GOFFGRATCH on this corpus at commit
// 1f0e32d): it reads as a miss, the scenario executes once, and the
// blob that replaces it serves the text the parent stored.
func TestParentOutcomeReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int64
	srv := storeServer(t, dir, func(string) { execs.Add(1) })
	var sc rca.Scenario
	for _, e := range rca.Experiments() {
		if e.Name() == "GOFFGRATCH" {
			sc = e
		}
	}
	keys, err := srv.session.Keys(sc)
	if err != nil {
		t.Fatal(err)
	}
	fp := hashKeys(keys).Scenario
	parent, err := os.ReadFile("testdata/parent-records/outcome")
	if err != nil {
		t.Fatal(err)
	}
	placeBlob(t, dir, artifact.ClassOutcome, fp, parent)
	if _, ok := srv.artifacts.Get(artifact.ClassOutcome, fp); !ok {
		t.Fatal("parent blob not found at its address")
	}
	if _, ok := srv.storedOutcome(fp); ok {
		t.Fatal("parent outcome decoded; want a miss")
	}

	j, err := srv.submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	state, _, _, out, err := j.snapshot()
	if state != StateDone || out == nil || err != nil {
		t.Fatalf("job = %s, %+v, %v", state, out, err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d; want 1", n)
	}
	if !bytes.Contains(parent, []byte(out.Text)) {
		t.Fatalf("rendered text differs from the parent's:\n%s", out.Text)
	}
	stored, ok := storeServer(t, dir, nil).storedOutcome(fp)
	if !ok || stored.Text != out.Text {
		t.Fatalf("replacement blob = %+v, %v; want the rendered text", stored, ok)
	}
}

// placeBlob writes a framed blob file at the store address of (class,
// key): objects/<class>/<hh>/<hex sha256(class‖0‖key)>.
func placeBlob(t *testing.T, dir, class, key string, framed []byte) {
	t.Helper()
	sum := sha256.Sum256([]byte(class + "\x00" + key))
	a := hex.EncodeToString(sum[:])
	path := filepath.Join(dir, "objects", class, a[:2], a)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, framed, 0o644); err != nil {
		t.Fatal(err)
	}
}
