package model

import (
	"math"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/stats"
)

func TestRNGSeedSharedAcrossMembers(t *testing.T) {
	// Two different members use the same PRNG stream (CESM's streams
	// are reproducible): their cloud random draws are identical, so
	// the *only* inter-member variation is the initial perturbation.
	r := runnerFor(t, corpus.Config{AuxModules: 15, Seed: 2})
	a, err := r.Run(RunConfig{Member: 1, SnapshotAll: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(RunConfig{Member: 2, SnapshotAll: true})
	if err != nil {
		t.Fatal(err)
	}
	ra := a.AllValues["cloud_rand_lw::::rnum_lw"]
	rb := b.AllValues["cloud_rand_lw::::rnum_lw"]
	if len(ra) == 0 || len(rb) == 0 {
		t.Fatal("rnum_lw snapshots missing")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("PRNG stream differs between members")
		}
	}
}

func TestMersenneChangesDraws(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 15, Seed: 2})
	a, err := r.Run(RunConfig{Member: 1, SnapshotAll: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(RunConfig{Member: 1, RNG: RNGMersenne, SnapshotAll: true})
	if err != nil {
		t.Fatal(err)
	}
	ra := a.AllValues["cloud_rand_lw::::rnum_lw"]
	rb := b.AllValues["cloud_rand_lw::::rnum_lw"]
	same := true
	for i := range ra {
		if ra[i] != rb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("Mersenne produced identical draws")
	}
}

func TestPertScaleControlsSpread(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 15, Seed: 2})
	spread := func(scale float64) float64 {
		ens, err := r.RunBatchMeans(RunConfig{PertScale: scale}, memberRange(0, 6))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Std(sampleOf(ens, "T"))
	}
	small := spread(1e-12)
	big := spread(1e-6)
	if !(big > 10*small) {
		t.Fatalf("spread insensitive to perturbation scale: %v vs %v", small, big)
	}
}

func TestStopAfterLimitsSteps(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 15, Seed: 2})
	one, err := r.Run(RunConfig{StopAfter: 1, SnapshotAll: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Run(RunConfig{SnapshotAll: true})
	if err != nil {
		t.Fatal(err)
	}
	n1 := one.AllValues["cam_driver::::nstep"]
	n9 := full.AllValues["cam_driver::::nstep"]
	if n1[0] != 1 || n9[0] != float64(Steps) {
		t.Fatalf("nstep: one=%v full=%v", n1, n9)
	}
}

func TestEnsembleMembersDiffer(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 15, Seed: 2})
	ens, err := r.RunBatchMeans(RunConfig{}, memberRange(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ens); i++ {
		if ens[i]["T"] == ens[0]["T"] {
			t.Fatalf("members %d and 0 identical", i)
		}
	}
}

func TestAuxCouplerFeedsTemperature(t *testing.T) {
	// The coupler closes the loop from auxiliary modules to state%t:
	// the graph must show auxten as an ancestor of t (slice growth).
	r := runnerFor(t, corpus.Config{AuxModules: 30, Seed: 2})
	res, err := r.Run(RunConfig{SnapshotAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.AllValues["aux_coupler::::auxten"]; !ok {
		t.Fatal("auxten never materialized")
	}
	// auxten contributions must not destabilize T.
	tm := res.Means["T"]
	if math.IsNaN(tm) || tm < 200 || tm > 350 {
		t.Fatalf("T = %v", tm)
	}
}
