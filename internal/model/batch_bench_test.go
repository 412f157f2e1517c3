package model

import (
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
)

// The pair below isolates the ensemble-execution stage: the same eight
// members through one eight-lane BatchVM versus eight Runs, each on a
// one-lane BatchVM. The pipeline benchmarks at the repo root measure
// the end-to-end effect.

func batchBenchRunner(b *testing.B) *Runner {
	b.Helper()
	r, err := NewRunner(corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2}))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkEnsembleBatch8(b *testing.B) {
	r := batchBenchRunner(b)
	members := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunBatchMeans(RunConfig{}, members); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnsembleSolo8(b *testing.B) {
	r := batchBenchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 0; m < 8; m++ {
			if _, err := r.Run(RunConfig{Member: m}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
