package model

import (
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fortran"
)

// BenchmarkRunBytecode / BenchmarkRunTree time one full 9-step
// integration per engine on the bench-sized corpus — the per-member
// cost every ensemble pays.
func benchRunner(b *testing.B, kind EngineKind) {
	b.Helper()
	r, err := NewRunnerEngine(corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2}), kind)
	if err != nil {
		b.Fatal(err)
	}
	if kind != EngineTree {
		r.Program() // compile outside the timed loop
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(RunConfig{Member: i}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunBytecode(b *testing.B) { benchRunner(b, EngineBytecode) }
func BenchmarkRunTree(b *testing.B)     { benchRunner(b, EngineTree) }

// BenchmarkBuildRunner times corpus parse + bytecode compile — the
// per-source-fingerprint build cost the Session amortizes.
func BenchmarkBuildRunner(b *testing.B) {
	c := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := NewRunnerEngine(c, EngineBytecode)
		if err != nil {
			b.Fatal(err)
		}
		r.Program()
	}
}

// BenchmarkRunnerProgramParamVariant times what a Runner over an
// ensemble-parameter perturbation of the bench corpus pays for its
// program: a full compile (a tree without a shape key, the pre-sharing
// path) against a rebind of the clean tree's compiled program.
func BenchmarkRunnerProgramParamVariant(b *testing.B) {
	base := corpus.Config{AuxModules: 40, Seed: 2}
	clean, err := NewRunner(corpus.Generate(base))
	if err != nil {
		b.Fatal(err)
	}
	clean.Program()
	cfg := base
	cfg.TurbCoef = 0.0131
	c := corpus.Generate(cfg)
	mods, err := c.Parse()
	if err != nil {
		b.Fatal(err)
	}
	key := fortran.ShapeKey(mods)
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := &Runner{Corpus: c, Modules: mods}
			r.Program()
		}
	})
	b.Run("rebind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := &Runner{Corpus: c, Modules: mods, shape: key}
			r.Program()
			if r.Rebinds() != 1 {
				b.Fatal("variant did not rebind the clean program")
			}
		}
	})
}
