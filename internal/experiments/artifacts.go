package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/coverage"
	"github.com/climate-rca/rca/internal/model"
)

// WithArtifacts attaches a content-addressed artifact store to the
// session. The session itself stores nothing: corpora and metagraphs
// are rebuilt from source in a few milliseconds, under the session's
// own cells. The store is for the layers above that share answers
// across processes: the scenario search's verdicts and incumbents, and
// rcad's finished outcomes.
func WithArtifacts(store *artifact.Store) Option {
	return func(s *Session) { s.store = store }
}

// ArtifactStore returns the session's attached store, or nil.
func (s *Session) ArtifactStore() *artifact.Store { return s.store }

// corpusFor builds the generated+patched corpus for one source
// fingerprint. Patches over the session's own configuration apply to
// the session's clean corpus, which Generate would reproduce byte for
// byte, so the process generates each session configuration once. A
// patched build takes the clean corpus, not the control runner: it
// neither waits for the control tree's parse nor inherits the control
// build's error.
func (s *Session) corpusFor(ctx context.Context, key string, cfg corpus.Config, patches []corpus.Patch) (*corpus.Corpus, error) {
	if key == s.cleanKey() {
		return s.cleanCorpus(ctx)
	}
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
}

// cleanCorpus returns the control build's corpus: the process-wide
// one of the session's configuration.
func (s *Session) cleanCorpus(ctx context.Context) (*corpus.Corpus, error) {
	return s.clean.get(ctx, func() (*corpus.Corpus, error) {
		return sharedClean(s.cfg), nil
	})
}

// cleanCorpora shares the clean corpora of session configurations
// process-wide, so a fresh session of a known configuration (a search
// op, a catalog run) does not generate its corpus again. Generate is
// deterministic and a corpus is never modified after it returns (see
// DESIGN "Source table"), so sharing is safe. Only a session's own
// configuration enters: a `param:` build's configuration is generated
// per build, since its values come from a continuous range. The table
// does not evict: past cleanCorporaMax configurations, each session of
// a new one generates its own.
var (
	cleanCorpora     sync.Map // corpus.Config → *corpus.Corpus
	cleanCorporaSize atomic.Int64
)

const cleanCorporaMax = 16

// sharedClean returns the process-wide clean corpus of cfg, generating
// it on first use.
func sharedClean(cfg corpus.Config) *corpus.Corpus {
	if v, ok := cleanCorpora.Load(cfg); ok {
		return v.(*corpus.Corpus)
	}
	c := corpus.Generate(cfg)
	if cleanCorporaSize.Load() >= cleanCorporaMax {
		return c
	}
	if v, loaded := cleanCorpora.LoadOrStore(cfg, c); loaded {
		return v.(*corpus.Corpus)
	}
	cleanCorporaSize.Add(1)
	return c
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
// identical metagraphs: they share one in-session cell, and all but
// the first filter and build nothing. A value that changes control
// flow changes the trace and so the key. Modules without a shape
// digest key by their build fingerprint.
func (s *Session) compiledTraced(ctx context.Context, buildKey string, r *model.Runner, tr *coverage.Trace) (*Compiled, error) {
	key := buildKey
	if shape := r.ProgramKey(); shape != "" {
		key = shape + "|" + tr.Key()
	}
	built := false
	comp, err := keyedCell(&s.mu, s.metagraphs, key).get(ctx, func() (*Compiled, error) {
		built = true
		return metagraphStage(r.Modules, tr)
	})
	if err == nil && !built {
		s.metagraphShares.Add(1)
	}
	return comp, err
}
