// Package hypergraph implements the hypergraph representation shared by
// every algorithm in this repository, together with the structural
// quantities Kelsen's analysis of the Beame–Luby algorithm is phrased in
// (the neighbourhood counts N_j(x,H), normalized degrees d_j(x,H) and
// maximum normalized degrees Δ_i(H), Δ(H)), the trimming operations the
// SBL and BL loops perform each round, random instance generators, and
// verification of independence and maximality.
//
// Terminology follows the paper: a hypergraph H = (V, E) has n vertices
// and m edges, each edge being a subset of V; the dimension is the
// maximum edge size. A vertex set is independent if it contains no edge,
// and a maximal independent set (MIS) is an independent set contained in
// no larger one.
//
// # Representation
//
// A Hypergraph stores its edges in flat CSR (compressed sparse row)
// form: one contiguous vertex arena and an offsets array, with the
// public Edge values served as subslices of the arena:
//
//	verts []V      one arena holding every edge's vertices back to back
//	off   []int32  len M()+1; edge i is verts[off[i]:off[i+1]]
//	edges []Edge   cached three-index subslice headers into verts
//
// Edges are kept in canonical order (lexicographically sorted,
// deduplicated, each edge internally sorted and strictly increasing),
// so edge i < edge i+1 under lessEdge and binary search over the edge
// list is valid.
//
// Ownership rules: a Hypergraph and everything reachable from Edges()
// is immutable after construction — callers must never write through
// the returned slices, and the package never does. The pure
// transformations in ops.go always copy surviving vertices into a
// fresh arena, so their results share no storage with their inputs.
// The scratch-based round pipeline in round.go is the one exception:
// it recycles caller-owned arenas (see RoundScratch for its aliasing
// contract).
package hypergraph

import (
	"fmt"
	"sort"
)

// V is a vertex identifier: an index in [0, N).
type V = int32

// Edge is a set of vertices stored as a strictly increasing slice.
type Edge []V

// Hypergraph is an immutable hypergraph on the vertex set {0, …, N-1}.
// Edges are deduplicated, sorted subslices of one flat CSR vertex arena
// (see the package comment for the layout). Construct via Builder or
// the generator functions (decoders that have validated canonical form
// use FromCanonicalCSR); algorithms never mutate a Hypergraph in place.
type Hypergraph struct {
	n     int
	dim   int
	verts []V     // CSR arena: all edges' vertices, back to back
	off   []int32 // len(edges)+1; edge i is verts[off[i]:off[i+1]]
	edges []Edge  // cached headers into verts, canonical order
	// digest memoizes the instance digest (hgio.Digest) when the graph
	// was decoded from its canonical encoding; "" otherwise. Set once by
	// FromCanonicalCSR, before the graph is shared.
	digest string
}

// setEdges derives the edge headers from a CSR arena — edges[i] is the
// three-index subslice verts[off[i]:off[i+1]] — and returns the
// dimension. Every constructor goes through it.
func setEdges(edges []Edge, verts []V, off []int32) (dim int) {
	for i := range edges {
		edges[i] = verts[off[i]:off[i+1]:off[i+1]]
		dim = max(dim, len(edges[i]))
	}
	return dim
}

// FromCanonicalCSR adopts a CSR arena the caller has already validated
// as canonical: every edge nonempty, strictly increasing and inside
// [0, n), the edge list strictly lex-increasing, off[0] = 0 and
// off[len(off)-1] = len(verts). Nothing is re-checked or copied; the
// Hypergraph takes ownership of verts and off. digest is the memo
// hgio.Digest returns for the graph ("" = compute on demand); only a
// decoder that hashed the graph's exact canonical encoding may set it.
func FromCanonicalCSR(n int, verts []V, off []int32, digest string) *Hypergraph {
	edges := make([]Edge, len(off)-1)
	dim := setEdges(edges, verts, off)
	return &Hypergraph{n: n, dim: dim, verts: verts, off: off, edges: edges, digest: digest}
}

// DigestMemo returns the digest FromCanonicalCSR recorded, or "".
// Callers wanting the instance digest use hgio.Digest, which falls back
// to encoding the graph.
func (h *Hypergraph) DigestMemo() string { return h.digest }

// packCanon copies an already-canonical edge list (each edge sorted and
// strictly increasing, list lex-sorted and deduplicated) into a fresh
// CSR arena. The input edges are only read.
func packCanon(n int, canon []Edge) *Hypergraph {
	off := make([]int32, len(canon)+1)
	for i, e := range canon {
		off[i+1] = off[i] + int32(len(e))
	}
	verts := make([]V, off[len(canon)])
	for i, e := range canon {
		copy(verts[off[i]:], e)
	}
	return FromCanonicalCSR(n, verts, off, "")
}

// NewBuilder returns a builder for a hypergraph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("hypergraph: negative vertex count")
	}
	return &Builder{n: n}
}

// Builder accumulates edges and produces a canonical Hypergraph. Edges
// are canonicalized (sorted, duplicate vertices within an edge removed)
// and duplicate edges are dropped. Empty edges are rejected at Build
// time: an empty edge makes every set dependent and no MIS exists.
type Builder struct {
	n     int
	edges []Edge
}

// AddEdge appends an edge given as vertex list. Vertices out of range
// cause Build to fail.
func (b *Builder) AddEdge(vs ...V) *Builder {
	e := make(Edge, len(vs))
	copy(e, vs)
	b.edges = append(b.edges, e)
	return b
}

// AddEdgeSlice appends an edge, taking ownership of the slice.
func (b *Builder) AddEdgeSlice(e Edge) *Builder {
	b.edges = append(b.edges, e)
	return b
}

// Build canonicalizes and validates the accumulated edges.
func (b *Builder) Build() (*Hypergraph, error) {
	canon := make([]Edge, 0, len(b.edges))
	for _, e := range b.edges {
		if len(e) == 0 {
			return nil, fmt.Errorf("hypergraph: empty edge (no independent set can exist)")
		}
		c := append(Edge(nil), e...)
		sortEdge(c)
		// Remove duplicate vertices within the edge.
		w := 1
		for i := 1; i < len(c); i++ {
			if c[i] != c[i-1] {
				c[w] = c[i]
				w++
			}
		}
		c = c[:w]
		for _, v := range c {
			if v < 0 || int(v) >= b.n {
				return nil, fmt.Errorf("hypergraph: vertex %d out of range [0,%d)", v, b.n)
			}
		}
		canon = append(canon, c)
	}
	return packCanon(b.n, dedupEdges(canon)), nil
}

// sortEdge sorts a vertex slice ascending. Small edges (the common
// case: dimension is polylogarithmic) use insertion sort, which does
// not allocate; sort.Slice is kept for pathological sizes.
func sortEdge(e Edge) {
	if len(e) <= 32 {
		for i := 1; i < len(e); i++ {
			v := e[i]
			j := i - 1
			for j >= 0 && e[j] > v {
				e[j+1] = e[j]
				j--
			}
			e[j+1] = v
		}
		return
	}
	sort.Slice(e, func(i, j int) bool { return e[i] < e[j] })
}

// MustBuild is Build that panics on error; for tests and generators
// whose construction cannot fail.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// dedupEdges sorts edges lexicographically and removes exact duplicates.
func dedupEdges(edges []Edge) []Edge {
	sort.Slice(edges, func(i, j int) bool { return lessEdge(edges[i], edges[j]) })
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || !equalEdge(e, edges[i-1]) {
			out = append(out, e)
		}
	}
	return out
}

func lessEdge(a, b Edge) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func equalEdge(a, b Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FromEdges builds a hypergraph directly from edges assumed owned by the
// caller; they are canonicalized like Builder does.
func FromEdges(n int, edges []Edge) (*Hypergraph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdgeSlice(e)
	}
	return b.Build()
}

// N returns the number of vertices.
func (h *Hypergraph) N() int { return h.n }

// M returns the number of edges.
func (h *Hypergraph) M() int { return len(h.edges) }

// Dim returns the dimension (maximum edge size); 0 if there are no edges.
func (h *Hypergraph) Dim() int { return h.dim }

// Edges returns the canonical edge list. Callers must not mutate it.
func (h *Hypergraph) Edges() []Edge { return h.edges }

// ArenaLen returns the total number of vertex slots over all edges (the
// CSR arena length) — the cost of one full edge-list pass, which the
// solvers use to decide whether a pass is worth sharding.
func (h *Hypergraph) ArenaLen() int { return len(h.verts) }

// Edge returns the i-th canonical edge. Callers must not mutate it.
func (h *Hypergraph) Edge(i int) Edge { return h.edges[i] }

// HasEdge reports whether the exact edge (as a vertex set) is present.
// The canonical edge list is lex-sorted, so this is a binary search:
// O(d·log m) rather than a scan of every edge.
func (h *Hypergraph) HasEdge(vs ...V) bool {
	e := append(Edge(nil), vs...)
	sortEdge(e)
	i := sort.Search(len(h.edges), func(i int) bool { return !lessEdge(h.edges[i], e) })
	return i < len(h.edges) && equalEdge(h.edges[i], e)
}

// Incidence returns, for each vertex, the indices of edges containing
// it. The per-vertex rows are subslices of one flat backing array (CSR
// over vertices), so the whole structure costs three allocations.
func (h *Hypergraph) Incidence() [][]int32 {
	inc := make([][]int32, h.n)
	deg := make([]int32, h.n+1)
	for _, v := range h.verts {
		deg[v+1]++
	}
	for v := 1; v <= h.n; v++ {
		deg[v] += deg[v-1]
	}
	flat := make([]int32, len(h.verts))
	for i, e := range h.edges {
		for _, v := range e {
			flat[deg[v]] = int32(i)
			deg[v]++
		}
	}
	start := int32(0)
	for v := 0; v < h.n; v++ {
		inc[v] = flat[start:deg[v]:deg[v]]
		start = deg[v]
	}
	return inc
}

// VertexDegrees returns the number of edges containing each vertex.
func (h *Hypergraph) VertexDegrees() []int {
	deg := make([]int, h.n)
	for _, e := range h.edges {
		for _, v := range e {
			deg[v]++
		}
	}
	return deg
}

// DimHistogram returns counts of edges by size, indexed by size
// (index 0 unused).
func (h *Hypergraph) DimHistogram() []int {
	hist := make([]int, h.dim+1)
	for _, e := range h.edges {
		hist[len(e)]++
	}
	return hist
}

// String summarizes the hypergraph.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph{n=%d, m=%d, dim=%d}", h.n, len(h.edges), h.dim)
}

// Clone returns a deep copy. Useful when callers need to hold onto a
// hypergraph across mutating pipelines built from raw edge slices.
func (h *Hypergraph) Clone() *Hypergraph {
	return FromCanonicalCSR(h.n, append([]V(nil), h.verts...), append([]int32(nil), h.off...), "")
}

// ContainsSorted reports whether sorted edge e contains sorted subset x.
func ContainsSorted(e, x Edge) bool {
	if len(x) > len(e) {
		return false
	}
	i := 0
	for _, v := range x {
		for i < len(e) && e[i] < v {
			i++
		}
		if i >= len(e) || e[i] != v {
			return false
		}
		i++
	}
	return true
}

// IntersectionSize returns |a ∩ b| for sorted edges.
func IntersectionSize(a, b Edge) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// DiffSorted returns e \ s for sorted slices, allocating a new slice.
func DiffSorted(e, s Edge) Edge {
	out := make(Edge, 0, len(e))
	j := 0
	for _, v := range e {
		for j < len(s) && s[j] < v {
			j++
		}
		if j < len(s) && s[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}
