package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/corpus"
)

// corruptAllBlobs flips one payload byte in every blob under the
// store directory.
func corruptAllBlobs(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)-1] ^= 0xff
		n++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no blobs to corrupt; store empty")
	}
}

// testCfg is the small corpus every artifact test shares.
func artifactTestCfg() corpus.Config { return corpus.Config{AuxModules: 10, Seed: 5} }

// TestCorpusCodecRoundTripCatalog does the same for the corpus codec,
// over every distinct patched source tree the catalog produces.
func TestCorpusCodecRoundTripCatalog(t *testing.T) {
	cfg := artifactTestCfg()
	seen := map[string]bool{}
	for _, sc := range catalog {
		p, err := buildPlan(cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.sourceKey()] {
			continue
		}
		seen[p.sourceKey()] = true
		base := corpus.Generate(p.cfg)
		if len(p.patches) > 0 {
			if base, err = corpus.Apply(base, p.patches...); err != nil {
				t.Fatal(err)
			}
		}
		enc1, err := base.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := corpus.Decode(enc1)
		if err != nil {
			t.Fatal(err)
		}
		enc2, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: corpus codec not bit-exact", sc.Name())
		}
	}
	if len(seen) < 2 {
		t.Fatalf("catalog produced %d distinct source trees; test vacuous", len(seen))
	}
}

// outcomeDigest reduces an outcome to the fields a warm restore must
// reproduce exactly.
func outcomeDigest(o *Outcome) string {
	return fmt.Sprintf("%s|%.17g|%v|%v|%v|g=%d,%d|s=%d,%d|cov=%+v|located=%v|ranked=%v",
		o.Name, o.FailureRate, o.SelectedOutputs, o.Internals, o.BugDisplays,
		o.GraphNodes, o.GraphEdges, o.SliceNodes, o.SliceEdges,
		o.Coverage, o.BugLocated, o.MedianRanking[:min(3, len(o.MedianRanking))])
}

// TestSessionWarmStartFromStore runs three catalog scenarios on a
// store-backed session, then replays them on a brand-new session over
// a fresh handle to the same directory: every stored artifact class
// must be served from disk (zero builds in the second session) and the
// outcomes must match the cold run exactly.
func TestSessionWarmStartFromStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := artifactTestCfg()
	specs := []Scenario{WSUBBUG, GOFFGRATCH, AVX2}

	run := func(store *artifact.Store) map[string]string {
		s := NewSession(cfg, WithEnsembleSize(6), WithExpSize(2), WithArtifacts(store))
		digests := map[string]string{}
		for _, spec := range specs {
			out, err := s.Run(ctx, spec)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name(), err)
			}
			digests[spec.Name()] = outcomeDigest(out)
		}
		return digests
	}

	cold, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldDigests := run(cold)
	if cold.Stats().Builds == 0 {
		t.Fatal("cold session built nothing; store not wired")
	}

	warm, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmDigests := run(warm)
	if n := warm.Stats().Builds; n != 0 {
		t.Fatalf("warm session ran %d artifact builds; want 0 (everything from disk)", n)
	}
	for name, d := range coldDigests {
		if warmDigests[name] != d {
			t.Errorf("%s outcome changed across warm restore:\ncold: %s\nwarm: %s", name, d, warmDigests[name])
		}
	}
}

// TestSessionStoreCorruptionRebuilds damages every stored blob and
// checks a fresh session still produces the identical outcome by
// rebuilding from source (integrity failure degrades to a miss).
func TestSessionStoreCorruptionRebuilds(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := artifactTestCfg()
	sc := GOFFGRATCH

	cold, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSession(cfg, WithEnsembleSize(6), WithExpSize(2), WithArtifacts(cold))
	out1, err := s1.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}

	corruptAllBlobs(t, dir)

	warm, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(cfg, WithEnsembleSize(6), WithExpSize(2), WithArtifacts(warm))
	out2, err := s2.Run(ctx, sc)
	if err != nil {
		t.Fatalf("session did not survive blob corruption: %v", err)
	}
	if warm.Stats().Builds == 0 {
		t.Fatal("corrupted store served hits; integrity check not applied")
	}
	if outcomeDigest(out1) != outcomeDigest(out2) {
		t.Errorf("rebuild after corruption changed the outcome:\n%s\n%s",
			outcomeDigest(out1), outcomeDigest(out2))
	}
}
