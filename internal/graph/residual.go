package graph

// Residual is a mutable view of a graph supporting vertex removal with O(1)
// amortized degree maintenance. It is the workhorse of the peeling
// algorithms: VC-Coreset (Theorem 2) repeatedly removes all vertices whose
// residual degree exceeds a threshold, and Parnas-Ron peeling does the same
// on the whole graph. Building one costs a CSR over every edge, so
// core.PeelVC builds it only once a level can actually peel: a level whose
// threshold is above every residual degree removes nothing.
//
// Removal is lazy on the adjacency side: neighbors are not unlinked, but
// degrees are decremented eagerly and dead vertices are skipped on scans.
type Residual struct {
	adj   *Adj
	alive []bool
	deg   []int32 // residual degree (edges to alive neighbors)
	edges []Edge  // originating edge list (shared, not owned)
	eDead []bool  // edge removed because an endpoint died
}

// NewResidual builds a residual view over (n, edges). The edge slice is
// retained (not copied) and must not be mutated while the Residual is live.
func NewResidual(n int, edges []Edge) *Residual {
	r := &Residual{
		adj:   BuildAdj(n, edges),
		alive: make([]bool, n),
		deg:   make([]int32, n),
		edges: edges,
		eDead: make([]bool, len(edges)),
	}
	for i := range r.alive {
		r.alive[i] = true
		r.deg[i] = int32(r.adj.Degree(ID(i)))
	}
	return r
}

// N returns the vertex-universe size (including removed vertices).
func (r *Residual) N() int { return r.adj.N }

// Alive reports whether v is still present.
func (r *Residual) Alive(v ID) bool { return r.alive[v] }

// Degree returns the residual degree of v (0 if removed).
func (r *Residual) Degree(v ID) int {
	if !r.alive[v] {
		return 0
	}
	return int(r.deg[v])
}

// Remove deletes v and decrements the residual degree of its alive
// neighbors. Removing an already-dead vertex is a no-op.
func (r *Residual) Remove(v ID) {
	if !r.alive[v] {
		return
	}
	r.alive[v] = false
	r.deg[v] = 0
	off := r.adj.Off
	for i := off[v]; i < off[v+1]; i++ {
		w := r.adj.Nbr[i]
		if r.alive[w] {
			r.deg[w]--
		}
		r.eDead[r.adj.EID[i]] = true
	}
}

// RemoveAtLeast removes every alive vertex with residual degree >= threshold
// and returns them. This implements one peeling iteration. The scan is a
// single pass: because removals only decrease degrees, a vertex below the
// threshold now stays below it, so the set selected up front is exactly the
// set the paper's per-iteration definition peels.
func (r *Residual) RemoveAtLeast(threshold int) []ID {
	var peeled []ID
	for v := 0; v < r.adj.N; v++ {
		if r.alive[v] && int(r.deg[v]) >= threshold {
			peeled = append(peeled, ID(v))
		}
	}
	for _, v := range peeled {
		r.Remove(v)
	}
	return peeled
}

// LiveEdges returns the edges with both endpoints alive, preserving input
// order.
func (r *Residual) LiveEdges() []Edge {
	out := make([]Edge, 0, len(r.edges))
	for i, e := range r.edges {
		if !r.eDead[i] {
			out = append(out, e)
		}
	}
	return out
}

// LiveEdgeCount returns the number of edges with both endpoints alive.
func (r *Residual) LiveEdgeCount() int {
	c := 0
	for i := range r.edges {
		if !r.eDead[i] {
			c++
		}
	}
	return c
}

// MaxDegree returns the maximum residual degree.
func (r *Residual) MaxDegree() int {
	max := int32(0)
	for v := 0; v < r.adj.N; v++ {
		if r.alive[v] && r.deg[v] > max {
			max = r.deg[v]
		}
	}
	return int(max)
}
