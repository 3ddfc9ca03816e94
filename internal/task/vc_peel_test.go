package task

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/vcover"
)

// checkVCParity runs every machine of parts through the batch peel, the
// online builder with and without a vertex-count hint, and the composer, and
// requires each to equal its frozen reference (vc_ref_test.go) deep. It
// returns how many vertices the machines peeled in total, so callers can
// assert that the peeling path really ran.
func checkVCParity(t *testing.T, n, k int, parts [][]graph.Edge) int {
	t.Helper()
	peeled := 0
	var batch, online, refs []*core.VCCoreset
	for i, part := range parts {
		got := core.ComputeVCCoreset(n, k, part)
		want := refComputeVCCoreset(n, k, part)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("machine %d: batch peel diverges:\n got %+v\nwant %+v", i, got, want)
		}
		if len(part) > 0 && len(got.Residual) > 0 && &got.Residual[0] == &part[0] {
			t.Fatalf("machine %d: residual aliases the caller's partition", i)
		}
		peeled += len(got.Fixed)
		batch, refs = append(batch, got), append(refs, want)

		for _, nHint := range []int{n, 0} {
			b, rb := newVCBuilder(k, nHint), newRefVCBuilder(k, nHint)
			for _, e := range part {
				b.Add(e)
				rb.Add(e)
			}
			gs, ws := b.Finish(n), rb.Finish(n)
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("machine %d nHint %d: builder diverges:\n got %+v\nwant %+v", i, nHint, gs, ws)
			}
			if nHint == n {
				online = append(online, gs.VC)
			}
		}
	}
	var union []graph.Edge
	for _, cs := range refs {
		union = append(union, cs.Residual...)
	}
	if got, want := vcover.FromMatching(n, union), refFromMatching(n, union); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromMatching diverges:\n got %v\nwant %v", got, want)
	}
	want := refComposeVC(n, refs)
	for name, cs := range map[string][]*core.VCCoreset{"batch": batch, "online": online} {
		if got := core.ComposeVC(n, cs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s compose diverges:\n got %v\nwant %v", name, got, want)
		}
	}
	return peeled
}

// levelStars is a single-machine input on which every VC-Coreset level
// peels: at n = 4096, k = 1 the thresholds are 1024, 512, ..., 32, and one
// star centre sits just above each. The leaves are shared, so peeling a
// centre lowers the others' residual degrees only through parallel edges.
func levelStars() (int, []graph.Edge) {
	n := 4096
	var edges []graph.Edge
	for c, d := range []int{1500, 700, 300, 150, 80, 40} {
		for j := 0; j < d; j++ {
			edges = append(edges, graph.Edge{U: graph.ID(c), V: graph.ID(10 + (j*7+c)%(n-10))})
		}
	}
	return n, edges
}

// The new peel and composer are exact on inputs whose levels do peel, at
// one level (dense gnp, star) and at many (Chung-Lu, layered stars).
func TestVCPeelParityWhenLevelsPeel(t *testing.T) {
	star := gen.Star(4096)
	cl := gen.ChungLu(4096, 2.1, 1500, rng.New(3))
	dense := gen.GNP(200, 0.5, rng.New(4))
	ln, lstars := levelStars()
	for _, tc := range []struct {
		name  string
		n, k  int
		parts [][]graph.Edge
	}{
		{"star k=2", star.N, 2, partition.HashK(star.Edges, 2, 1)},
		{"star k=4", star.N, 4, partition.HashK(star.Edges, 4, 2)},
		{"chung-lu k=1", cl.N, 1, [][]graph.Edge{cl.Edges}},
		{"chung-lu k=2", cl.N, 2, partition.HashK(cl.Edges, 2, 5)},
		{"dense gnp k=2", dense.N, 2, partition.HashK(dense.Edges, 2, 6)},
		{"layered stars k=1", ln, 1, [][]graph.Edge{lstars}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if checkVCParity(t, tc.n, tc.k, tc.parts) == 0 {
				t.Fatal("no level peeled; the input does not exercise the CSR path")
			}
		})
	}
	// Every level of the layered stars peels exactly its own centre.
	cs := core.ComputeVCCoreset(ln, 1, lstars)
	want := [][]graph.ID{{0}, {1}, {2}, {3}, {4}, {5}}
	if !reflect.DeepEqual(cs.Levels, want) {
		t.Fatalf("layered stars levels = %v, want %v", cs.Levels, want)
	}
}

// Self-loops, parallel edges, empty and nil partitions and sparse inputs on
// which no level peels all keep the exact shapes: nil levels, a non-nil
// empty residual, a nil cover.
func TestVCPeelParityEdgeCases(t *testing.T) {
	g := gen.GNP(300, 0.05, rng.New(8))
	messy := append([]graph.Edge(nil), g.Edges...)
	for v := graph.ID(0); v < 40; v++ {
		messy = append(messy, graph.Edge{U: v, V: v}, graph.Edge{U: 0, V: v + 1}, graph.Edge{U: 0, V: v + 1})
	}
	sparse := gen.GNP(5000, 4.0/5000, rng.New(9))
	// At n = 64, k = 1 level 1 peels at degree 16: vertex 0 reaches it only
	// because its self-loop counts twice.
	loopTips := []graph.Edge{{U: 0, V: 0}}
	for v := graph.ID(1); v <= 14; v++ {
		loopTips = append(loopTips, graph.Edge{U: 0, V: v})
	}
	for _, tc := range []struct {
		name  string
		n, k  int
		parts [][]graph.Edge
	}{
		{"self-loops and parallel edges", g.N, 1, [][]graph.Edge{messy}},
		{"self-loops and parallel edges k=3", g.N, 3, partition.HashK(messy, 3, 1)},
		{"empty partitions", 64, 8, partition.HashK([]graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}}, 8, 3)},
		{"nil partitions", 500, 2, [][]graph.Edge{nil, {}}},
		{"sparse, nothing peels", sparse.N, 4, partition.HashK(sparse.Edges, 4, 2)},
		{"tiny n", 1, 1, [][]graph.Edge{{{U: 0, V: 0}}}},
		{"self-loop reaches the threshold", 64, 1, [][]graph.Edge{loopTips}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkVCParity(t, tc.n, tc.k, tc.parts) })
	}
	cs := core.ComputeVCCoreset(500, 2, nil)
	if cs.Residual == nil || cs.Fixed != nil || len(cs.Levels) == 0 || cs.Levels[0] != nil {
		t.Fatalf("empty partition shape: %+v", cs)
	}
	if cover := core.ComposeVC(500, []*core.VCCoreset{cs}); cover != nil {
		t.Fatalf("empty compose = %v, want nil", cover)
	}
}

// The composer marks fixed vertices only after the residual matching: a
// residual edge that touches another machine's fixed vertex is still
// matched, as in the maximal matching of the union alone. Fixed ids repeated
// across machines appear once (a star split k ways, above, fixes its centre
// on every machine).
func TestComposeVCFixedAcrossMachines(t *testing.T) {
	coresets := []*core.VCCoreset{
		{Fixed: []graph.ID{0, 7}, Residual: []graph.Edge{}},
		{Fixed: []graph.ID{7}, Residual: []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 3}}},
		{Fixed: []graph.ID{0}, Residual: []graph.Edge{{U: 2, V: 4}, {U: 5, V: 6}}},
	}
	got := core.ComposeVC(8, coresets)
	want := refComposeVC(8, coresets)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, []graph.ID{0, 1, 2, 4, 5, 6, 7}) {
		t.Fatalf("compose = %v, reference %v", got, want)
	}
}

// The online builder keeps its edges in fixed-size chunks; Stored counts
// them across chunk boundaries and the peel sees them in arrival order.
func TestVCBuilderChunkedStore(t *testing.T) {
	g := gen.Path(3*vcChunkEdges + 7)
	b := newVCBuilder(1, 0)
	for _, e := range g.Edges {
		b.Add(e)
	}
	if len(b.chunks) < 2 {
		t.Fatalf("%d edges fit in %d chunk(s); the test must cross a boundary", len(g.Edges), len(b.chunks))
	}
	for i, c := range b.chunks {
		if cap(c) != vcChunkEdges || (i < len(b.chunks)-1 && len(c) != vcChunkEdges) {
			t.Fatalf("chunk %d: len %d cap %d", i, len(c), cap(c))
		}
	}
	s := b.Finish(g.N)
	if s.Stored != len(g.Edges) || !reflect.DeepEqual(s.VC.Residual, g.Edges) {
		t.Fatalf("stored %d of %d edges, residual equal = %v", s.Stored, len(g.Edges), reflect.DeepEqual(s.VC.Residual, g.Edges))
	}
}

// FuzzVCCoreset checks the batch peel, the online builder and the composer
// against the frozen references on arbitrary small multigraphs: byte 0 picks
// n <= 64, byte 1 the machine count, byte 2 the hash seed, and the rest are
// endpoint pairs (self-loops and parallel edges allowed).
func FuzzVCCoreset(f *testing.F) {
	f.Add([]byte{63, 0, 1, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 0, 15, 0, 16, 1, 2})
	f.Add([]byte{10, 1, 7, 1, 1, 2, 3, 2, 3, 4, 5})
	f.Add([]byte{40, 3, 9})
	star := []byte{31, 0, 0}
	for v := byte(1); v < 32; v++ {
		star = append(star, 0, v, v, 0)
	}
	f.Add(star)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0])%64 + 1
		k := int(data[1])%4 + 1
		var edges []graph.Edge
		for i := 3; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: graph.ID(int(data[i]) % n), V: graph.ID(int(data[i+1]) % n)})
		}
		checkVCParity(t, n, k, partition.HashK(edges, k, uint64(data[2])))
		checkVCParity(t, n, 1, [][]graph.Edge{edges})
	})
}
