package experiments_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/bytecode"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/experiments"
)

// TestSessionStaleProgramBlobRefreshed covers a store written by a
// binary with the previous program codec version: under every program
// shape key a session uses it plants a blob of that version. A session
// on the store must produce a store-less session's outcome byte for
// byte, and leave each key holding the blob the current codec writes.
func TestSessionStaleProgramBlobRefreshed(t *testing.T) {
	ctx := context.Background()
	cfg := corpus.Config{AuxModules: 8, Seed: 9300}
	run := func(opts ...experiments.Option) (*experiments.Session, string) {
		t.Helper()
		opts = append([]experiments.Option{experiments.WithEnsembleSize(6), experiments.WithExpSize(2)}, opts...)
		s := experiments.NewSession(cfg, opts...)
		o, err := s.Run(ctx, experiments.GOFFGRATCH)
		if err != nil {
			t.Fatal(err)
		}
		return s, rca.FormatOutcome(o)
	}
	_, want := run()

	// The current blobs, and the keys they live under.
	fresh, err := artifact.Open("")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := run(experiments.WithArtifacts(fresh))
	keys := experiments.ProgramShapeKeys(s)
	if len(keys) == 0 {
		t.Fatal("session stored no program blobs")
	}
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	current := map[string][]byte{}
	for _, k := range keys {
		blob, ok := fresh.Get(artifact.ClassProgram, k)
		if !ok {
			t.Fatalf("no program blob under %s", k)
		}
		current[k] = blob
		stale := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(stale, binary.LittleEndian.Uint32(blob)-1)
		if _, err := bytecode.DecodeProgram(stale); err == nil {
			t.Fatal("a blob of the previous codec version decodes")
		}
		if err := store.Put(artifact.ClassProgram, k, stale); err != nil {
			t.Fatal(err)
		}
	}

	if _, got := run(experiments.WithArtifacts(store)); got != want {
		t.Errorf("outcome over stale program blobs differs from a store-less run\n--- stale store\n%s--- no store\n%s", got, want)
	}
	for _, k := range keys {
		blob, ok := store.Get(artifact.ClassProgram, k)
		if !ok || !bytes.Equal(blob, current[k]) {
			t.Errorf("program blob under %s was not rewritten at the current codec version", k)
		}
	}
}
