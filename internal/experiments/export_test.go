package experiments

// RefineMemoLen reports how many distinct subgraph keys s's refinement
// memo holds.
func RefineMemoLen(s *Session) int { return s.refine.Memo.Len() }
