package experiments

import "sort"

// RefineMemoLen reports how many distinct subgraph keys s's refinement
// memo holds.
func RefineMemoLen(s *Session) int { return s.refine.Memo.Len() }

// ProgramShapeKeys lists the program shape keys s has sent through its
// artifact store.
func ProgramShapeKeys(s *Session) []string {
	var keys []string
	s.programShapes.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	sort.Strings(keys)
	return keys
}
