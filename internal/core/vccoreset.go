package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/vcover"
)

// VCCoreset is the vertex-cover coreset of one machine (Theorem 2): a set of
// vertices fixed directly into the final cover, plus a sparse residual
// subgraph whose union across machines is covered at composition time.
type VCCoreset struct {
	// Fixed is V_cs^(i) = union of the peeled levels: vertices whose
	// residual degree reached the level threshold. They are added to the
	// final vertex cover unconditionally.
	Fixed []graph.ID
	// Residual is the edge set of G_Delta^(i), the subgraph left after
	// peeling; the paper bounds it by O(n log n) edges.
	Residual []graph.Edge
	// Levels records the peeled set of each iteration j = 1..Delta-1
	// (diagnostics; Lemma 3.6 sandwiches these sets between the
	// hypothetical processes O_j / O-bar_j).
	Levels [][]graph.ID
}

// PeelingDepth returns Delta: the smallest integer with
// n/(k*2^Delta) <= 4*log2(n), per the first line of VC-Coreset. All
// logarithms in the implementation are base 2; the paper's O~ bounds are
// insensitive to the base.
func PeelingDepth(n, k int) int {
	if n < 2 || k < 1 {
		return 1
	}
	limit := 4 * math.Log2(float64(n))
	delta := 1
	for float64(n)/(float64(k)*math.Pow(2, float64(delta))) > limit {
		delta++
	}
	return delta
}

// ComputeVCCoreset runs VC-Coreset (Theorem 2) on one machine's partition.
// n is the global vertex count and k the number of machines; both enter the
// peeling thresholds n/(k*2^(j+1)). It is PeelVC with no level peeled in
// advance; the returned Residual is a fresh slice that never aliases part.
func ComputeVCCoreset(n, k int, part []graph.Edge) *VCCoreset {
	return PeelVC(n, k, nil, part)
}

// PeelVC is the VC-Coreset level loop, shared by the batch ComputeVCCoreset
// and the streaming builder (internal/task), which peels level 1 online as
// edges arrive and resumes here at level 2. done holds the levels already
// peeled, in order; chunks hold the machine's stored edges in arrival order.
// Every done vertex counts as removed, and the remaining levels
// j = len(done)+1 .. Delta-1 peel at threshold ceil(n/(k*2^(j+1))).
//
// One pass drops the edges that touch a done vertex and counts the residual
// degrees of the rest. A level whose threshold exceeds the largest residual
// degree peels nothing and is recorded as a nil entry without building
// anything, which on a sparse random k-partition is every level. A
// graph.Residual CSR is built only from the first level that can peel on,
// and peels exactly as the per-level definition says. Each level lists its
// vertices in ascending order; Fixed is the concatenation of the levels; the
// Residual keeps arrival order and is non-nil even when empty.
func PeelVC(n, k int, done [][]graph.ID, chunks ...[]graph.Edge) *VCCoreset {
	out := &VCCoreset{}
	var removed []bool
	for _, level := range done {
		out.Levels = append(out.Levels, level)
		out.Fixed = append(out.Fixed, level...)
		if len(level) > 0 && removed == nil {
			removed = make([]bool, n)
		}
		for _, v := range level {
			removed[v] = true
		}
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	live := make([]graph.Edge, 0, total)
	deg := make([]int32, n)
	for _, c := range chunks {
		for _, e := range c {
			if removed != nil && (removed[e.U] || removed[e.V]) {
				continue
			}
			live = append(live, e)
			deg[e.U]++
			deg[e.V]++
		}
	}
	maxDeg := 0
	for _, d := range deg {
		maxDeg = max(maxDeg, int(d))
	}
	// Every threshold is at least 1, so a removed vertex (residual degree 0)
	// is never selected again and the Residual need not be told about it.
	var res *graph.Residual
	delta := PeelingDepth(n, k)
	for j := len(done) + 1; j <= delta-1; j++ {
		threshold := int(math.Ceil(float64(n) / (float64(k) * math.Pow(2, float64(j+1)))))
		if res == nil && threshold > maxDeg {
			out.Levels = append(out.Levels, nil)
			continue
		}
		if res == nil {
			res = graph.NewResidual(n, live)
		}
		peeled := res.RemoveAtLeast(threshold)
		out.Levels = append(out.Levels, peeled)
		out.Fixed = append(out.Fixed, peeled...)
	}
	out.Residual = live
	if res != nil {
		out.Residual = res.LiveEdges()
	}
	return out
}

// ComposeVC combines vertex-cover coresets into a feasible cover of G: the
// union of the fixed sets, plus a vertex cover of the union of the residual
// subgraphs. The paper composes with any 2-approximation; we use the
// maximal-matching 2-approximation by default.
//
// Feasibility (as argued after the algorithm in Section 3.2): every edge of
// G lives in some G(i); there it is either incident on a peeled vertex
// (covered by that machine's fixed set) or survives into G_Delta^(i)
// (covered by the residual cover).
//
// The cover is marked in one n-sized table: first the endpoints of a greedy
// maximal matching over the residuals, taken in machine order and arrival
// order without building their union (the same matching
// vcover.FromMatching takes over graph.UnionEdges), then the fixed vertices.
// An ascending scan of the table emits the cover sorted and distinct. Every
// id must lie in [0, n).
func ComposeVC(n int, coresets []*VCCoreset) []graph.ID {
	in := make([]bool, n)
	size := 0
	for _, cs := range coresets {
		for _, e := range cs.Residual {
			if e.U != e.V && !in[e.U] && !in[e.V] {
				in[e.U], in[e.V] = true, true
				size += 2
			}
		}
	}
	// Fixed vertices are marked only after the matching is complete: a
	// residual edge may touch another machine's fixed vertex and is still
	// matched, exactly as the maximal matching of the union alone would.
	for _, cs := range coresets {
		for _, v := range cs.Fixed {
			if !in[v] {
				in[v] = true
				size++
			}
		}
	}
	if size == 0 {
		return nil
	}
	cover := make([]graph.ID, 0, size)
	for v, ok := range in {
		if ok {
			cover = append(cover, graph.ID(v))
		}
	}
	return cover
}

// ComposeVCGreedy is ComposeVC with the greedy H_n-approximation on the
// residual union instead of the 2-approximation; experiments use it to show
// the composition is robust to the choice of the final cover algorithm.
func ComposeVCGreedy(n int, coresets []*VCCoreset) []graph.ID {
	var fixed []graph.ID
	var residuals [][]graph.Edge
	for _, cs := range coresets {
		fixed = append(fixed, cs.Fixed...)
		residuals = append(residuals, cs.Residual)
	}
	union := graph.UnionEdges(residuals...)
	cover := append(fixed, vcover.GreedyDegree(n, union)...)
	return vcover.Dedup(cover)
}

// VCCoresetSizeBytes returns the encoded message size of a VC coreset
// (fixed vertex ids plus residual edges), for communication accounting. The
// residual is charged at the delta edge-batch codec the cluster runtime uses
// on the wire, keeping simulated and measured sizes one definition.
func VCCoresetSizeBytes(cs *VCCoreset) int {
	return graph.EncodedIDBytes(cs.Fixed) + graph.EdgeBatchBytes(cs.Residual)
}

// VCCoresetSize returns the paper's size measure for a VC coreset: number
// of residual edges plus number of fixed vertices.
func VCCoresetSize(cs *VCCoreset) int {
	return len(cs.Residual) + len(cs.Fixed)
}
