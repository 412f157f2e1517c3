package experiments

import (
	"context"

	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/binenc"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/coverage"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/model"
)

// WithArtifacts attaches a content-addressed artifact store to the
// session: the expensive build artifacts — generated+patched corpora
// (per source fingerprint) and coverage-filtered metagraphs (per source
// shape and coverage trace) — gain a write-through/read-back disk layer
// under their cache keys. A fresh session (or a fresh process) pointed
// at a warm store skips corpus generation and the metagraph
// construction; it compiles each program shape once, and the two-step
// coverage trace that forms the metagraph's key still runs. Builds are
// deduplicated across every process sharing the store via its
// lock-file singleflight.
func WithArtifacts(store *artifact.Store) Option {
	return func(s *Session) { s.store = store }
}

// ArtifactStore returns the session's attached store, or nil.
func (s *Session) ArtifactStore() *artifact.Store { return s.store }

// stored returns the artifact of one class under key. With a store
// attached, it is built at most once across every process sharing the
// store and decoded everywhere else; without one, it is built
// in-process. Decode failures (a stale codec version survives on disk
// across a binary upgrade) rebuild cleanly and refresh the blob.
func stored[T any](ctx context.Context, store *artifact.Store, class, key string,
	build func() (T, error), encode func(T) ([]byte, error), decode func([]byte) (T, error)) (T, error) {
	if store == nil {
		return build()
	}
	var fresh T
	data, built, err := store.GetOrBuild(ctx, class, key, func() ([]byte, error) {
		v, err := build()
		if err != nil {
			return nil, err
		}
		fresh = v
		return encode(v)
	})
	if err != nil {
		var zero T
		return zero, err
	}
	if built {
		return fresh, nil
	}
	if v, err := decode(data); err == nil {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	if enc, err := encode(v); err == nil {
		_ = store.Put(class, key, enc)
	}
	return v, nil
}

// corpusFor builds (or restores) the generated+patched corpus for one
// source fingerprint. Patches over the session's own configuration
// apply to the session's clean corpus, which Generate would reproduce
// byte for byte, so a session generates each configuration once. A
// patched build takes the clean corpus, not the control runner: it
// neither waits for the control tree's parse nor inherits the control
// build's error.
func (s *Session) corpusFor(ctx context.Context, key string, cfg corpus.Config, patches []corpus.Patch) (*corpus.Corpus, error) {
	if key == s.cleanKey() {
		return s.cleanCorpus(ctx)
	}
	return stored(ctx, s.store, artifact.ClassCorpus, key, func() (*corpus.Corpus, error) {
		if len(patches) == 0 {
			return corpus.Generate(cfg), nil
		}
		if cfg != s.cfg {
			return corpus.Apply(corpus.Generate(cfg), patches...)
		}
		clean, err := s.cleanCorpus(ctx)
		if err != nil {
			return nil, err
		}
		return corpus.Apply(clean, patches...)
	}, (*corpus.Corpus).Encode, corpus.Decode)
}

// cleanCorpus returns the control build's corpus, generated (or
// restored) at most once per session.
func (s *Session) cleanCorpus(ctx context.Context) (*corpus.Corpus, error) {
	return s.clean.get(ctx, func() (*corpus.Corpus, error) {
		return stored(ctx, s.store, artifact.ClassCorpus, s.cleanKey(), func() (*corpus.Corpus, error) {
			return corpus.Generate(s.cfg), nil
		}, (*corpus.Corpus).Encode, corpus.Decode)
	})
}

// compiledFor runs the two-step coverage trace on the scenario's
// experimental build and returns the §4 artifact its trace selects.
func (s *Session) compiledFor(ctx context.Context, p *plan) (*Compiled, error) {
	b, err := s.buildsFor(ctx, p)
	if err != nil {
		return nil, err
	}
	tr, err := traceStage(b)
	if err != nil {
		return nil, err
	}
	return s.compiledTraced(ctx, p.buildKey(), b.Exper, tr)
}

// compiledTraced returns the coverage report and metagraph of r's
// modules filtered by tr, keyed by r's program shape plus tr's key.
// The metagraph never reads a module-level initializer or a literal
// value, so builds that differ only in those values (`param:`
// perturbations, `scale:` factors of one assignment, literal
// replacements) and whose traces executed the same code compile
// identical metagraphs: they
// share one in-session cell and one `compiled` blob, and all but the
// first filter, build, encode and write nothing. A value that changes
// control flow changes the trace and so the key. Modules
// without a shape digest key by their build fingerprint.
func (s *Session) compiledTraced(ctx context.Context, buildKey string, r *model.Runner, tr *coverage.Trace) (*Compiled, error) {
	key := buildKey
	if shape := r.ProgramKey(); shape != "" {
		key = shape + "|" + tr.Key()
	}
	built := false
	comp, err := keyedCell(&s.mu, s.metagraphs, key).get(ctx, func() (*Compiled, error) {
		built = true
		return stored(ctx, s.store, artifact.ClassCompiled, key, func() (*Compiled, error) {
			return metagraphStage(r.Modules, tr)
		}, EncodeCompiled, DecodeCompiled)
	})
	if err == nil && !built {
		s.metagraphShares.Add(1)
	}
	return comp, err
}

// compiledCodecVersion versions the Compiled artifact framing (the
// embedded metagraph payload carries its own codec version).
const compiledCodecVersion uint32 = 1

// EncodeCompiled serializes a §4 Compiled artifact (coverage report +
// metagraph) to the deterministic artifact format.
func EncodeCompiled(c *Compiled) ([]byte, error) {
	mg, err := c.Metagraph.Encode()
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter(len(mg) + 64)
	w.U32(compiledCodecVersion)
	w.Int(c.Coverage.ModulesBefore)
	w.Int(c.Coverage.ModulesAfter)
	w.Int(c.Coverage.SubprogramsBefore)
	w.Int(c.Coverage.SubprogramsAfter)
	w.Raw(mg)
	return w.Bytes(), nil
}

// DecodeCompiled reconstructs a Compiled artifact from EncodeCompiled
// bytes.
func DecodeCompiled(data []byte) (*Compiled, error) {
	r := binenc.NewReader(data)
	if v := r.U32(); v != compiledCodecVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, binenc.ErrMalformed
	}
	rep := coverage.Report{
		ModulesBefore:     r.Int(),
		ModulesAfter:      r.Int(),
		SubprogramsBefore: r.Int(),
		SubprogramsAfter:  r.Int(),
	}
	payload := r.Raw()
	if err := r.Done(); err != nil {
		return nil, err
	}
	mg, err := metagraph.Decode(payload)
	if err != nil {
		return nil, err
	}
	return &Compiled{Coverage: rep, Metagraph: mg}, nil
}
