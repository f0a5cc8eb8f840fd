package hypergraph

import (
	"sort"

	"repro/internal/bitset"
)

// Working is a mutable hypergraph maintaining the normal form the BL
// and SBL loops need — an antichain of nonempty edges (no edge contains
// another, no duplicates) — under the loops' three mutations: committing
// blue vertices (edges shrink), committing red vertices (edges die),
// and deleting singleton edges. Each mutation costs time proportional
// to the structures touched rather than a full rebuild, via incidence
// lists and a hashed canonical index (64-bit hashEdge keys with
// collision chains verified against the stored vertex sets — no string
// keys, no per-lookup allocation).
//
// Semantics are *identical* to the pure pipeline
// DiscardTouching → Shrink → RemoveSupersets → RemoveSingletons on the
// same hypergraph (property-tested): both produce the set of minimal
// edges of the residual edge multiset. Working exists because the pure
// pipeline rebuilds O(m) state per round, which dominates solver time
// on large instances with local updates.
type Working struct {
	n     int
	verts [][]V     // edge id → sorted vertices (nil = dead)
	inc   [][]int   // vertex → edge ids ever incident (may be stale)
	ix    edgeIndex // hashEdge → chain of live edge ids
	alive int

	// Commit scratch, reused across calls so a round allocates nothing
	// once warm. Both sets are packed bitsets: touched covers edge ids
	// (regrown as the id space extends), blueMark covers vertices and is
	// cleared bit-by-bit after each Commit.
	touched  bitset.Set
	blueMark bitset.Set
	ids      []int
}

// NewWorking initializes from h, normalizing to the antichain form
// (supersets and duplicates dropped; h is not modified).
func NewWorking(h *Hypergraph) *Working {
	norm := RemoveSupersets(h)
	w := &Working{
		n:        h.N(),
		inc:      make([][]int, h.N()),
		ix:       newEdgeIndex(norm.M()),
		blueMark: bitset.New(h.N()),
	}
	for _, e := range norm.Edges() {
		w.insert(append(Edge(nil), e...))
	}
	return w
}

// find returns the live edge id whose vertex set equals e, or -1. The
// hash is only a bucket selector: equality against the stored vertex
// set decides.
func (w *Working) find(e Edge) int32 {
	return w.ix.find(hashEdge(e), func(id int32) bool { return equalEdge(w.verts[id], e) })
}

// insert registers a live edge (assumed sorted, not present, not
// dominated — callers maintain the invariant).
func (w *Working) insert(e Edge) int {
	id := len(w.verts)
	w.verts = append(w.verts, e)
	w.ix.add(hashEdge(e), int32(id))
	for _, v := range e {
		w.inc[v] = append(w.inc[v], id)
	}
	w.alive++
	return id
}

// kill removes edge id from the live set (incidence lists stay stale).
func (w *Working) kill(id int) {
	if w.verts[id] == nil {
		return
	}
	w.ix.unlink(hashEdge(w.verts[id]), int32(id))
	w.verts[id] = nil
	w.alive--
}

// N returns the vertex-universe size.
func (w *Working) N() int { return w.n }

// M returns the number of live edges.
func (w *Working) M() int { return w.alive }

// Dim returns the current dimension (scan over live edges).
func (w *Working) Dim() int {
	d := 0
	for _, e := range w.verts {
		if len(e) > d {
			d = len(e)
		}
	}
	return d
}

// Snapshot materializes the current edge set as a canonical Hypergraph.
func (w *Working) Snapshot() *Hypergraph {
	edges := make([]Edge, 0, w.alive)
	for _, e := range w.verts {
		if e != nil {
			edges = append(edges, e)
		}
	}
	return fromCanon(w.n, edges)
}

// liveEdgesWith returns the live edge ids incident to v (filtering
// stale entries in place to keep future scans cheap).
func (w *Working) liveEdgesWith(v V) []int {
	lst := w.inc[v]
	out := lst[:0]
	for _, id := range lst {
		if e := w.verts[id]; e != nil && ContainsSorted(e, Edge{v}) {
			out = append(out, id)
		}
	}
	w.inc[v] = out
	return out
}

// Commit applies one solver round: every edge touching a red vertex
// dies (it can never be completed); every surviving edge shrinks by its
// blue vertices; the antichain normal form is restored incrementally.
// Returns the number of edges that would have become empty — an
// independence violation that the caller must treat as fatal (those
// edges are dropped).
func (w *Working) Commit(blue, red []V) (emptied int) {
	// Phase 1: red kills.
	for _, v := range red {
		for _, id := range w.liveEdgesWith(v) {
			w.kill(id)
		}
	}
	// Phase 2: collect the edges to shrink (dedup ids via the touched
	// bitset). The touched set and blue mask are scratch state owned by
	// w, reset before return.
	w.touched = w.touched.Grow(len(w.verts))
	ids := w.ids[:0]
	for _, v := range blue {
		for _, id := range w.liveEdgesWith(v) {
			if !w.touched.Has(id) {
				w.touched.Add(id)
				ids = append(ids, id)
			}
		}
	}
	w.ids = ids
	if len(ids) == 0 {
		return 0
	}
	for _, v := range blue {
		w.blueMark.Add(int(v))
	}
	defer func() {
		for _, v := range blue {
			w.blueMark.Del(int(v))
		}
	}()
	// Phase 3: shrink each touched edge and restore the antichain.
	sort.Ints(ids) // deterministic processing order
	for _, id := range ids {
		old := w.verts[id]
		if old == nil {
			continue // killed meanwhile as a superset
		}
		shrunk := make(Edge, 0, len(old))
		for _, v := range old {
			if !w.blueMark.Has(int(v)) {
				shrunk = append(shrunk, v)
			}
		}
		if len(shrunk) == len(old) {
			continue // stale incidence; edge unchanged
		}
		w.kill(id)
		if len(shrunk) == 0 {
			emptied++
			continue
		}
		w.integrate(shrunk)
	}
	return emptied
}

// integrate inserts a shrunk edge, restoring the antichain invariant:
// drop it if a duplicate or a live subset exists; otherwise kill every
// live proper superset, then insert.
func (w *Working) integrate(e Edge) {
	if w.find(e) >= 0 {
		return
	}
	// A live subset of e dominates it. Only subsets of e can be edges;
	// enumerate them when cheap, otherwise scan incidences.
	if len(e) <= MaxEnumerableDim {
		var scratch Edge
		full := uint32(1)<<uint(len(e)) - 1
		for mask := uint32(1); mask < full; mask++ {
			scratch = scratch[:0]
			for b := 0; b < len(e); b++ {
				if mask&(1<<uint(b)) != 0 {
					scratch = append(scratch, e[b])
				}
			}
			if w.find(scratch) >= 0 {
				return // dominated
			}
		}
	} else {
		// A subset of e contains at least one vertex of e, but not
		// necessarily e[0]: scan the incidences of every vertex of e.
		for _, v := range e {
			for _, id := range w.liveEdgesWith(v) {
				f := w.verts[id]
				if len(f) < len(e) && ContainsSorted(e, f) {
					return
				}
			}
		}
	}
	// Kill live supersets of e: all of them contain e[0].
	for _, id := range w.liveEdgesWith(e[0]) {
		f := w.verts[id]
		if len(f) > len(e) && ContainsSorted(f, e) {
			w.kill(id)
		}
	}
	w.insert(e)
}

// RemoveSingletons deletes every singleton edge, returning its vertex,
// and kills all remaining edges incident to those vertices (the
// vertices are permanently blocked, so edges through them can never be
// completed). Mirrors the BL cleanup semantics.
func (w *Working) RemoveSingletons() []V {
	var blocked []V
	for id, e := range w.verts {
		if e != nil && len(e) == 1 {
			blocked = append(blocked, e[0])
			w.kill(id)
		}
	}
	for _, v := range blocked {
		for _, id := range w.liveEdgesWith(v) {
			w.kill(id)
		}
	}
	return blocked
}

// UsedVertices returns the mask of vertices on at least one live edge.
func (w *Working) UsedVertices() []bool {
	used := make([]bool, w.n)
	for _, e := range w.verts {
		for _, v := range e {
			used[v] = true
		}
	}
	return used
}
