package matching

import (
	"slices"

	"repro/internal/graph"
)

// Blossom computes a maximum matching of a general graph using Edmonds'
// blossom-shrinking algorithm, with greedy initialization. It exists
// because the paper's coreset theorem applies to arbitrary graphs, not just
// bipartite ones; partitions of non-bipartite workloads (power-law,
// grid-with-chords) take this path.
//
// Each exposed root grows one alternating BFS tree. Past one O(n) set-up
// per call, a search costs the vertices and edges it touches, not n: only
// the touched vertices are reset for the next root, and degree-0 roots are
// skipped. Blossom bases live in a union-find whose root is the base, so
// contracting a blossom costs the length of its cycle. The search order is
// the textbook one (roots in index order, neighbors in edge-list order,
// newly even blossom vertices enqueued in ascending order), so the mate
// array is a deterministic function of (n, edges).
func Blossom(n int, edges []graph.Edge) *Matching {
	return blossom(n, edges, graph.BuildAdj(n, edges))
}

// blossom is Blossom over a prebuilt adjacency of (n, edges).
func blossom(n int, edges []graph.Edge, adj *graph.Adj) *Matching {
	match := make([]graph.ID, n)    // partner or -1
	p := make([]graph.ID, n)        // BFS tree parent, or -1 outside the tree
	uf := make([]graph.ID, n)       // blossom union-find; a set's root is its base
	used := make([]bool, n)         // even (outer) in the current tree
	inBlossom := make([]bool, n)    // base marked by the current contraction
	lcaStamp := make([]uint32, n)   // base visited by the current lca walk
	queue := make([]graph.ID, 0, n) // BFS queue of even vertices
	touched := make([]graph.ID, 0, n)
	var marked []graph.ID
	var stamp uint32

	for i := range match {
		match[i] = -1
		p[i] = -1
		uf[i] = graph.ID(i)
	}

	// Greedy initialization: cheap and removes most augmentation phases.
	for _, e := range edges {
		if e.U != e.V && match[e.U] == -1 && match[e.V] == -1 {
			match[e.U] = e.V
			match[e.V] = e.U
		}
	}

	base := func(v graph.ID) graph.ID {
		r := v
		for uf[r] != r {
			r = uf[r]
		}
		for uf[v] != r {
			next := uf[v]
			uf[v] = r
			v = next
		}
		return r
	}

	lca := func(a, b graph.ID) graph.ID {
		stamp++
		if stamp == 0 {
			clear(lcaStamp)
			stamp = 1
		}
		// Climb from a to the root, marking bases.
		cur := a
		for {
			cur = base(cur)
			lcaStamp[cur] = stamp
			if match[cur] == -1 {
				break
			}
			cur = p[match[cur]]
		}
		// Climb from b until a marked base is met.
		cur = b
		for lcaStamp[base(cur)] != stamp {
			cur = p[match[cur]]
		}
		return base(cur)
	}

	mark := func(b graph.ID) {
		if !inBlossom[b] {
			inBlossom[b] = true
			marked = append(marked, b)
		}
	}

	markPath := func(v, b, child graph.ID) {
		for base(v) != b {
			mark(base(v))
			mark(base(match[v]))
			p[v] = child
			child = match[v]
			v = p[match[v]]
		}
	}

	// findPath grows an alternating BFS tree from root; returns an exposed
	// vertex ending an augmenting path, or -1. The tree's vertices are
	// recorded in touched as they leave their pristine state.
	findPath := func(root graph.ID) graph.ID {
		for _, v := range touched {
			used[v] = false
			p[v] = -1
			uf[v] = v
		}
		touched = append(touched[:0], root)
		used[root] = true
		queue = append(queue[:0], root)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, to := range adj.Neighbors(v) {
				if base(v) == base(to) || match[v] == to {
					continue
				}
				if to == root || (match[to] != -1 && p[match[to]] != -1) {
					// Odd cycle: contract the blossom. Every vertex of a
					// multi-vertex set is already even, so the newly even
					// vertices are exactly the unused marked bases.
					curBase := lca(v, to)
					marked = marked[:0]
					markPath(v, curBase, to)
					markPath(to, curBase, v)
					slices.Sort(marked)
					for _, b := range marked {
						inBlossom[b] = false
						uf[b] = curBase
						if !used[b] {
							used[b] = true
							queue = append(queue, b)
						}
					}
				} else if p[to] == -1 {
					p[to] = v
					touched = append(touched, to)
					if match[to] == -1 {
						return to
					}
					used[match[to]] = true
					touched = append(touched, match[to])
					queue = append(queue, match[to])
				}
			}
		}
		return -1
	}

	for v := graph.ID(0); int(v) < n; v++ {
		if match[v] != -1 || adj.Degree(v) == 0 {
			continue
		}
		u := findPath(v)
		if u == -1 {
			continue
		}
		// Augment along parent pointers from the exposed endpoint.
		for u != -1 {
			pv := p[u]
			ppv := match[pv]
			match[u] = pv
			match[pv] = u
			u = ppv
		}
	}

	m := NewEmpty(n)
	for v := 0; v < n; v++ {
		if match[v] != -1 && graph.ID(v) < match[v] {
			m.Add(graph.Edge{U: graph.ID(v), V: match[v]})
		}
	}
	return m
}
