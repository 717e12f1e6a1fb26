package simnet

// MemoStats reports n's non-empty solves and how many the memo answered.
func MemoStats(n *Network) (solves, hits int) { return n.solves, n.memoHits }
