package matching

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// cycleEdges returns the edges of the cycle C_n on vertices 0..n-1.
func cycleEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.ID(i), V: graph.ID((i + 1) % n)}
	}
	return edges
}

// requireReferenceMates fails unless Blossom returns the frozen reference's
// mate array bit for bit.
func requireReferenceMates(t *testing.T, name string, n int, edges []graph.Edge) *Matching {
	t.Helper()
	got := Blossom(n, edges)
	want := referenceBlossom(n, edges)
	if !slices.Equal(got.Mate, want.Mate) {
		for v := range got.Mate {
			if got.Mate[v] != want.Mate[v] {
				t.Fatalf("%s: mate[%d] = %d, reference %d (sizes %d vs %d)",
					name, v, got.Mate[v], want.Mate[v], got.Size(), want.Size())
			}
		}
	}
	return got
}

func TestBlossomKnownAnswers(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []graph.Edge
		want  int
	}{
		{"C3", 3, cycleEdges(3), 1},
		{"C4", 4, cycleEdges(4), 2},
		{"C5", 5, cycleEdges(5), 2},
		{"C6", 6, cycleEdges(6), 3},
		{"C7", 7, cycleEdges(7), 3},
		{"C8", 8, cycleEdges(8), 4},
		{"C9", 9, cycleEdges(9), 4},
		{
			// Stem 0-1=2 into the pentagon 2-3=4-5=6-2, exit 5-7. Greedy
			// leaves 0 and 7 exposed; the search from 0 contracts the
			// pentagon before it reaches 7.
			name: "flower", n: 8,
			edges: []graph.Edge{
				{U: 1, V: 2}, {U: 3, V: 4}, {U: 5, V: 6},
				{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 2}, {U: 5, V: 7},
			},
			want: 4,
		},
		{
			// Stem 0-1=2, triangle 2-3=4-2, then 4-5=6-3 closes a second odd
			// cycle through that triangle, and 5-7 exits. The search from 0
			// contracts {2,3,4}, then {2..6} around it, then reaches 7.
			name: "nested blossoms", n: 8,
			edges: []graph.Edge{
				{U: 1, V: 2}, {U: 3, V: 4}, {U: 5, V: 6},
				{U: 0, V: 1}, {U: 2, V: 3}, {U: 2, V: 4}, {U: 4, V: 5}, {U: 6, V: 3}, {U: 5, V: 7},
			},
			want: 4,
		},
		{
			// 0-1=2, triangle {2,3,4}, 4-5=6, triangle {6,7,8}, 8-9: the
			// search from 0 contracts both triangles on its way to 9.
			name: "two blossoms on one path", n: 10,
			edges: []graph.Edge{
				{U: 1, V: 2}, {U: 3, V: 4}, {U: 5, V: 6}, {U: 7, V: 8},
				{U: 0, V: 1}, {U: 2, V: 3}, {U: 2, V: 4}, {U: 4, V: 5},
				{U: 6, V: 7}, {U: 6, V: 8}, {U: 8, V: 9},
			},
			want: 5,
		},
		{
			// Outer pentagon, spokes i-(i+5), inner pentagram. The first
			// three edges form a maximal matching, so greedy stops at 3 and
			// the search has to augment twice.
			name: "Petersen", n: 10,
			edges: []graph.Edge{
				{U: 0, V: 1}, {U: 3, V: 8}, {U: 7, V: 9},
				{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
				{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 4, V: 9},
				{U: 5, V: 7}, {U: 9, V: 6}, {U: 6, V: 8}, {U: 8, V: 5},
			},
			want: 5,
		},
		{"isolated vertices only", 6, nil, 0},
		{"empty graph", 0, nil, 0},
		{
			// A triangle, a path of three and four isolated vertices.
			name: "components and isolated vertices", n: 10,
			edges: []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}, {U: 4, V: 5}},
			want:  2,
		},
		{"self-loop and duplicates", 3, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := requireReferenceMates(t, tc.name, tc.n, tc.edges)
			if err := Verify(tc.n, tc.edges, m); err != nil {
				t.Fatal(err)
			}
			if m.Size() != tc.want {
				t.Fatalf("size %d, want %d", m.Size(), tc.want)
			}
			if brute := BruteForceSize(tc.n, tc.edges); brute != tc.want {
				t.Fatalf("table says %d but brute force says %d", tc.want, brute)
			}
		})
	}
}

func TestBlossomMatchesReferenceRandom(t *testing.T) {
	r := rng.New(29)
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(40) + 1
		p := 0.02 + r.Float64()*0.3
		edges := randGraph(r, n, p)
		// Shuffle so greedy initialization does not always favour low ids.
		for i := len(edges) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			edges[i], edges[j] = edges[j], edges[i]
		}
		requireReferenceMates(t, fmt.Sprintf("trial %d (n=%d m=%d)", trial, n, len(edges)), n, edges)
	}
}

// TestBlossomMatchesReferenceLarge pins the mate arrays on the inputs the
// matcher meets in the benchmark: each hash part of gnp n=16384 deg 8
// (k=8), the union of those parts' maximum matchings (the compose input),
// and a Chung–Lu powerlaw draw with n=16384.
func TestBlossomMatchesReferenceLarge(t *testing.T) {
	const n = 16384
	edges := gen.Collect(gen.GNPIter(n, 8.0/n, rng.New(1)))
	var union []graph.Edge
	for i, part := range partition.HashK(edges, 8, 1) {
		m := requireReferenceMates(t, fmt.Sprintf("gnp part %d", i), n, part)
		union = append(union, m.Edges()...)
	}
	requireReferenceMates(t, "gnp union", n, union)
	power := gen.Collect(gen.PowerlawIter(n, 2.0, n/16+1, rng.New(1)))
	requireReferenceMates(t, "powerlaw", n, power)
}

// FuzzBlossom decodes the bytes into a graph with at most 14 vertices (the
// first byte picks n, each following pair one edge, self-loops and
// duplicates allowed) and checks Blossom against brute force, against
// Hopcroft-Karp when the graph is 2-colorable, and against the frozen
// reference's mate array.
func FuzzBlossom(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 2, 5, 7})
	f.Add([]byte{9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0})
	f.Add([]byte{13, 0, 0, 3, 3, 1, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%14 + 1
		var edges []graph.Edge
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: graph.ID(int(data[i]) % n), V: graph.ID(int(data[i+1]) % n)})
		}
		m := requireReferenceMates(t, "fuzz", n, edges)
		if err := Verify(n, edges, m); err != nil {
			t.Fatal(err)
		}
		if brute := BruteForceSize(n, edges); m.Size() != brute {
			t.Fatalf("Blossom size %d, brute force %d", m.Size(), brute)
		}
		if side, ok := graph.BuildAdj(n, edges).IsBipartiteWithSides(); ok {
			b, _, _ := graph.FromGraphSides(n, edges, side)
			if _, _, hk := HopcroftKarp(b); m.Size() != hk {
				t.Fatalf("Blossom size %d, Hopcroft-Karp %d", m.Size(), hk)
			}
		}
	})
}
