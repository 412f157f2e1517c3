package experiments

import "github.com/climate-rca/rca/internal/corpus"

// RefineMemoLen reports how many distinct subgraph keys s's refinement
// memo holds.
func RefineMemoLen(s *Session) int { return s.refine.Memo.Len() }

// CleanCorpusConfigs lists the configurations the process-wide clean
// corpus table holds.
func CleanCorpusConfigs() []corpus.Config {
	var out []corpus.Config
	cleanCorpora.Range(func(k, _ any) bool {
		out = append(out, k.(corpus.Config))
		return true
	})
	return out
}
