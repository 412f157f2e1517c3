package search

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/experiments"
)

// TestStoredRecordsRoundTrip writes verdict and incumbent blobs through
// one disk-backed store handle and reads them back through another:
// every rate comes back bit for bit, -0 and the smallest subnormal
// included.
func TestStoredRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	open := func() *artifact.Store {
		s, err := artifact.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rates := []float64{1.0 / 3, 0, math.Copysign(0, -1), 1, 5e-324}
	incumbent := func(i int) *node {
		return &node{wave: i + 1, rate: rates[i], ids: []string{"scale:micro_mg/micro_mg_tend.tlat*1.00015", fmt.Sprintf("param:p%d=%d", i, i)}}
	}
	w := open()
	for i, rate := range rates {
		key := fmt.Sprint(i)
		if err := w.PutJSON(artifact.ClassVerdict, key, verdictRecord{Rate: rate}); err != nil {
			t.Fatal(err)
		}
		n := incumbent(i)
		if err := w.PutJSON(artifact.ClassIncumbent, key, incumbentRecord{Wave: n.wave, Rate: n.rate, IDs: n.ids}); err != nil {
			t.Fatal(err)
		}
	}
	r := open()
	for i, rate := range rates {
		key := fmt.Sprint(i)
		var got verdictRecord
		if !r.GetJSON(artifact.ClassVerdict, key, &got) || math.Float64bits(got.Rate) != math.Float64bits(rate) {
			t.Fatalf("verdict %d = %v; want bits of %v", i, got.Rate, rate)
		}
		n, ok := (&engine{store: r, fingerprint: key}).storedIncumbent()
		want := incumbent(i)
		if !ok || n.wave != want.wave || math.Float64bits(n.rate) != math.Float64bits(want.rate) || !reflect.DeepEqual(n.ids, want.ids) {
			t.Fatalf("incumbent %d = %+v, %v; want %+v", i, n, ok, want)
		}
	}
	if err := w.PutJSON(artifact.ClassIncumbent, "big", incumbentRecord{IDs: make([]string, MaxPool+1)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := (&engine{store: r, fingerprint: "big"}).storedIncumbent(); ok {
		t.Fatalf("an incumbent with %d ids was read; want at most MaxPool", MaxPool+1)
	}
}

// TestParentVerdictRecomputed reads a verdict blob written by the
// store's previous binary record codec (testdata/parent-records/verdict,
// the framed file evalScenario stored at commit 1f0e32d for the probe
// scenario below): it reads as a miss, the verdict is recomputed to
// the rate the parent stored, and the blob is replaced by one that
// decodes.
func TestParentVerdictRecomputed(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := smokeSession(t, experiments.WithArtifacts(store))
	ens, runs := s.Sizes()
	e := &engine{session: s, store: store, runKey: fmt.Sprintf("e=%d|r=%d", ens, runs)}
	sc := experiments.NewScenario("probe", experiments.ScenarioOptions{}, scale("tlat", 1.00015))
	keys, err := s.Keys(sc)
	if err != nil {
		t.Fatal(err)
	}
	key := keys.Build + "|" + e.runKey
	parent, err := os.ReadFile("testdata/parent-records/verdict")
	if err != nil {
		t.Fatal(err)
	}
	placeBlob(t, dir, artifact.ClassVerdict, key, parent)
	if _, ok := store.Get(artifact.ClassVerdict, key); !ok {
		t.Fatal("parent blob not found at its address")
	}
	var rec verdictRecord
	if store.GetJSON(artifact.ClassVerdict, key, &rec) {
		t.Fatal("parent blob decoded; want a miss")
	}

	ev, err := e.evalScenario(context.Background(), sc)
	if err != nil || !ev.feasible {
		t.Fatalf("evalScenario = %+v, %v", ev, err)
	}
	// The parent stored the rate as its last eight bytes.
	if want := binary.LittleEndian.Uint64(parent[len(parent)-8:]); math.Float64bits(ev.rate) != want {
		t.Fatalf("recomputed rate %v; the parent stored %v", ev.rate, math.Float64frombits(want))
	}
	if !store.GetJSON(artifact.ClassVerdict, key, &rec) || math.Float64bits(rec.Rate) != math.Float64bits(ev.rate) {
		t.Fatalf("replacement blob = %v; want %v", rec.Rate, ev.rate)
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
