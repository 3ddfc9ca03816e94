package task

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
)

// This file freezes the vertex-cover machine and composer as they were
// before core.PeelVC and the table-marking core.ComposeVC: a graph.Residual
// CSR built over the whole partition for every peel, a growing edge slice in
// the builder, and a composed cover sorted out of the union of the
// residuals. The differential tests in vc_peel_test.go pin the current code
// to these references field for field.

// refComputeVCCoreset is the CSR VC-Coreset: build the residual over the
// whole partition, then peel every level.
func refComputeVCCoreset(n, k int, part []graph.Edge) *core.VCCoreset {
	delta := core.PeelingDepth(n, k)
	res := graph.NewResidual(n, part)
	out := &core.VCCoreset{}
	for j := 1; j <= delta-1; j++ {
		threshold := float64(n) / (float64(k) * math.Pow(2, float64(j+1)))
		peeled := res.RemoveAtLeast(int(math.Ceil(threshold)))
		out.Levels = append(out.Levels, peeled)
		out.Fixed = append(out.Fixed, peeled...)
	}
	out.Residual = res.LiveEdges()
	return out
}

// refVCBuilder is the online-peeling machine with a single growing edge
// slice and its own level loop from level 2.
type refVCBuilder struct {
	k         int
	threshold int
	deg       []int32
	peeled    []bool
	nPeeled   int
	stored    []graph.Edge
}

func newRefVCBuilder(k, nHint int) *refVCBuilder {
	b := &refVCBuilder{k: k}
	if nHint > 0 && core.PeelingDepth(nHint, k) > 1 {
		b.threshold = int(math.Ceil(float64(nHint) / (float64(k) * 4)))
		b.deg = make([]int32, nHint)
		b.peeled = make([]bool, nHint)
	}
	return b
}

func (b *refVCBuilder) grow(v graph.ID) {
	for int(v) >= len(b.deg) {
		b.deg = append(b.deg, 0)
		b.peeled = append(b.peeled, false)
	}
}

func (b *refVCBuilder) Add(e graph.Edge) {
	if b.threshold == 0 {
		b.stored = append(b.stored, e)
		return
	}
	b.grow(e.U)
	b.grow(e.V)
	b.deg[e.U]++
	b.deg[e.V]++
	b.peel(e.U)
	b.peel(e.V)
	if b.peeled[e.U] || b.peeled[e.V] {
		return
	}
	b.stored = append(b.stored, e)
}

func (b *refVCBuilder) peel(v graph.ID) {
	if !b.peeled[v] && int(b.deg[v]) >= b.threshold {
		b.peeled[v] = true
		b.nPeeled++
	}
}

func (b *refVCBuilder) Finish(n int) Summary {
	var cs *core.VCCoreset
	if b.threshold == 0 {
		cs = refComputeVCCoreset(n, b.k, b.stored)
	} else {
		cs = b.finishFromLevel2(n)
	}
	return Summary{
		VC:     cs,
		Stored: len(b.stored),
		Live:   b.nPeeled,
		Bytes:  core.VCCoresetSizeBytes(cs),
	}
}

func (b *refVCBuilder) finishFromLevel2(n int) *core.VCCoreset {
	delta := core.PeelingDepth(n, b.k)
	var level1 []graph.ID
	for v := 0; v < len(b.peeled); v++ {
		if b.peeled[v] {
			level1 = append(level1, graph.ID(v))
		}
	}
	res := graph.NewResidual(n, b.stored)
	for _, v := range level1 {
		res.Remove(v)
	}
	out := &core.VCCoreset{}
	out.Levels = append(out.Levels, level1)
	out.Fixed = append(out.Fixed, level1...)
	for j := 2; j <= delta-1; j++ {
		threshold := float64(n) / (float64(b.k) * math.Pow(2, float64(j+1)))
		peeled := res.RemoveAtLeast(int(math.Ceil(threshold)))
		out.Levels = append(out.Levels, peeled)
		out.Fixed = append(out.Fixed, peeled...)
	}
	out.Residual = res.LiveEdges()
	return out
}

// refComposeVC is Dedup(fixed ∪ FromMatching(UnionEdges(residuals))).
func refComposeVC(n int, coresets []*core.VCCoreset) []graph.ID {
	var fixed []graph.ID
	var residuals [][]graph.Edge
	for _, cs := range coresets {
		fixed = append(fixed, cs.Fixed...)
		residuals = append(residuals, cs.Residual)
	}
	union := graph.UnionEdges(residuals...)
	cover := append(fixed, refFromMatching(n, union)...)
	return refDedup(cover)
}

func refFromMatching(n int, edges []graph.Edge) []graph.ID {
	m := matching.MaximalGreedy(n, edges)
	out := make([]graph.ID, 0, 2*m.Size())
	for _, e := range m.Edges() {
		out = append(out, e.U, e.V)
	}
	return refDedup(out)
}

func refDedup(cover []graph.ID) []graph.ID {
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	out := cover[:0]
	for i, v := range cover {
		if i == 0 || v != cover[i-1] {
			out = append(out, v)
		}
	}
	return out
}
