package hypergraph

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/par"
)

// This file implements the allocation-free round pipeline: the
// per-round hypergraph transforms of the SBL/BL/KUW loops, fused into
// single passes over the flat CSR arenas and double-buffered through a
// caller-owned RoundScratch so that a round costs zero heap allocations
// once the buffers are warm. Results are edge-set-identical to the pure
// pipeline in ops.go (property-tested in round_test.go).
//
// Every pass is sharded over the scratch's engine when the arena is
// large enough to pay for dispatch: classification and scatter split
// the edge list into blocks, and slot assignment runs as per-shard
// tallies + an exact prefix sum over the shards, so the assigned slots
// — and therefore the output arenas — are bit-identical to the
// sequential scan for any worker count.

// parallelScanThreshold is the arena size above which the per-edge
// classification and scatter passes are sharded over the worker pool.
// Below it the sequential loop wins (and allocates nothing at all).
const parallelScanThreshold = 1 << 14

// csrBuf is one reusable CSR arena plus the Hypergraph header served
// from it.
type csrBuf struct {
	verts []V
	off   []int32
	edges []Edge
	hg    Hypergraph
}

// grow reslices the buffer's arrays to the requested sizes, reallocating
// only when capacity is insufficient.
func (b *csrBuf) grow(nVerts, nEdges int) {
	if cap(b.verts) < nVerts {
		b.verts = make([]V, nVerts)
	} else {
		b.verts = b.verts[:nVerts]
	}
	if cap(b.off) < nEdges+1 {
		b.off = make([]int32, nEdges+1)
	} else {
		b.off = b.off[:nEdges+1]
	}
	if cap(b.edges) < nEdges {
		b.edges = make([]Edge, nEdges)
	} else {
		b.edges = b.edges[:nEdges]
	}
}

// finish rebuilds the edge headers from off/verts and installs the
// Hypergraph header.
func (b *csrBuf) finish(n int) *Hypergraph {
	dim := setEdges(b.edges, b.verts, b.off)
	b.hg = Hypergraph{n: n, dim: dim, verts: b.verts, off: b.off, edges: b.edges}
	return &b.hg
}

// RoundScratch holds the reusable arenas of the fused round pipeline.
// NextRound double-buffers through ring: each call writes the buffer
// the input does not occupy, so the result of call k is valid exactly
// until call k+2 — callers thread `cur = NextRound(cur, …)` and must
// not retain older rounds (Clone what must survive). InduceInto has a
// dedicated buffer, overwritten by the next InduceInto only, so an
// induced sub-hypergraph stays valid across interleaved NextRound
// calls. The zero value is ready to use; a RoundScratch must not be
// shared between concurrent solvers.
//
// Eng bounds the parallelism of the sharded passes (zero value = whole
// machine); outputs are bit-identical for any engine, so Eng is purely
// a scheduling knob — the service sets it to the degree the job was
// granted.
type RoundScratch struct {
	Eng par.Engine

	ring    [2]csrBuf
	ringIdx int
	sample  csrBuf
	keep    []int32 // per input edge: output edge index, or -1 dropped
	pos     []int32 // per input edge: output arena offset
	spill   []V     // reorder arena for the rare out-of-order repack
	stage   edgeSorter

	// Per-shard slot-assignment tallies (edges, verts, emptied).
	tallyE, tallyV, tallyZ []int32
}

// Poison overwrites every arena the scratch has ever grown with
// garbage. The round pipeline fully rewrites whatever it reads back
// (classify writes every keep/pos slot, grow+scatter+finish write
// every arena cell of the output shape), so a poisoned scratch must
// still produce identical rounds — the workspace-pooling property
// tests call this between jobs to prove no stale state leaks through.
// Hypergraphs previously served from the scratch are invalidated.
func (scr *RoundScratch) Poison() {
	bufs := []*csrBuf{&scr.ring[0], &scr.ring[1], &scr.sample}
	for _, b := range bufs {
		for i := range b.verts {
			b.verts[i] = V(-1)
		}
		for i := range b.off {
			b.off[i] = -1
		}
		for i := range b.edges {
			b.edges[i] = nil
		}
	}
	for i := range scr.keep {
		scr.keep[i] = -7
	}
	for i := range scr.pos {
		scr.pos[i] = -7
	}
	for i := range scr.spill {
		scr.spill[i] = V(-1)
	}
	for _, t := range [][]int32{scr.tallyE, scr.tallyV, scr.tallyZ} {
		for i := range t {
			t[i] = -7
		}
	}
}

// edgeSorter sorts edge headers lexicographically; kept in the scratch
// so sort.Sort receives a persistent interface value (no allocation).
type edgeSorter struct{ edges []Edge }

func (s *edgeSorter) Len() int           { return len(s.edges) }
func (s *edgeSorter) Less(i, j int) bool { return lessEdge(s.edges[i], s.edges[j]) }
func (s *edgeSorter) Swap(i, j int)      { s.edges[i], s.edges[j] = s.edges[j], s.edges[i] }

// target returns the ring buffer NextRound may write: the one cur does
// not occupy.
func (scr *RoundScratch) target(cur *Hypergraph) *csrBuf {
	idx := scr.ringIdx
	if cur == &scr.ring[idx].hg {
		idx = 1 - idx
	}
	scr.ringIdx = idx
	return &scr.ring[idx]
}

func (scr *RoundScratch) growClassify(m int) {
	if cap(scr.keep) < m {
		scr.keep = make([]int32, m)
		scr.pos = make([]int32, m)
	} else {
		scr.keep = scr.keep[:m]
		scr.pos = scr.pos[:m]
	}
}

// growTallies sizes and zeroes the per-shard tally slots. Zeroing
// matters: trailing shards whose block is empty are never invoked by
// ForShards, and the prefix sum reads every slot — a recycled slot
// must not leak a previous round's counts.
func (scr *RoundScratch) growTallies(shards int) {
	if cap(scr.tallyE) < shards {
		scr.tallyE = make([]int32, shards)
		scr.tallyV = make([]int32, shards)
		scr.tallyZ = make([]int32, shards)
		return
	}
	scr.tallyE = scr.tallyE[:shards]
	scr.tallyV = scr.tallyV[:shards]
	scr.tallyZ = scr.tallyZ[:shards]
	for i := 0; i < shards; i++ {
		scr.tallyE[i], scr.tallyV[i], scr.tallyZ[i] = 0, 0, 0
	}
}

// assignSlots turns the classify pass's keep array (−1 = dead, else
// post-transform size; 0 counts as emptied and is demoted to −1) into
// output slot assignments: keep[i] becomes the output edge index and
// pos[i] the output arena offset for every surviving edge. It returns
// the output shape. Large edge lists run as per-shard tallies plus an
// exact prefix sum over the shards, which assigns the same slots as
// the sequential scan for any worker count.
func (scr *RoundScratch) assignSlots(m int) (outEdges, outVerts, emptied int) {
	keep, pos := scr.keep, scr.pos
	shards := scr.Eng.NumShards(m)
	if m < parallelScanThreshold || shards <= 1 {
		for i := 0; i < m; i++ {
			k := keep[i]
			switch {
			case k < 0:
				continue
			case k == 0:
				emptied++
				keep[i] = -1
				continue
			}
			keep[i] = int32(outEdges)
			pos[i] = int32(outVerts)
			outEdges++
			outVerts += int(k)
		}
		return
	}
	scr.growTallies(shards)
	tE, tV, tZ := scr.tallyE, scr.tallyV, scr.tallyZ
	scr.Eng.ForShards(nil, m, shards, func(s, lo, hi int) {
		var e, v, z int32
		for i := lo; i < hi; i++ {
			k := keep[i]
			switch {
			case k < 0:
				continue
			case k == 0:
				z++
				keep[i] = -1
				continue
			}
			e++
			v += k
		}
		tE[s], tV[s], tZ[s] = e, v, z
	})
	// Exact exclusive prefix over the shard tallies (shards are few).
	var baseE, baseV int32
	for s := 0; s < shards; s++ {
		e, v := tE[s], tV[s]
		tE[s], tV[s] = baseE, baseV
		baseE += e
		baseV += v
		emptied += int(tZ[s])
	}
	outEdges, outVerts = int(baseE), int(baseV)
	scr.Eng.ForShards(nil, m, shards, func(s, lo, hi int) {
		e, v := tE[s], tV[s]
		for i := lo; i < hi; i++ {
			k := keep[i]
			if k < 0 {
				continue
			}
			keep[i] = e
			pos[i] = v
			e++
			v += k
		}
	})
	return
}

// InduceInto is Induced on scratch storage: it returns the
// sub-hypergraph of h restricted to edges fully inside {v : in(v)},
// built in the scratch's dedicated sample buffer. The result is valid
// until the next InduceInto call on the same scratch and must not be
// retained beyond it. h must not itself be the previous InduceInto
// result.
func InduceInto(h *Hypergraph, in func(V) bool, scr *RoundScratch) *Hypergraph {
	m := len(h.edges)
	scr.growClassify(m)
	keep := scr.keep
	if len(h.verts) >= parallelScanThreshold {
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { induceClassify(h, in, keep, lo, hi) })
	} else {
		induceClassify(h, in, keep, 0, m)
	}
	return scr.induceFinish(h)
}

// InduceIntoBits is InduceInto with the induced set given as a bitset:
// the classification pass tests membership with branch-free word
// probes instead of an indirect call per vertex.
func InduceIntoBits(h *Hypergraph, in bitset.Set, scr *RoundScratch) *Hypergraph {
	m := len(h.edges)
	scr.growClassify(m)
	keep := scr.keep
	if len(h.verts) >= parallelScanThreshold {
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { induceClassifyBits(h, in, keep, lo, hi) })
	} else {
		induceClassifyBits(h, in, keep, 0, m)
	}
	return scr.induceFinish(h)
}

// induceFinish runs the shared slot-assignment and scatter phases of
// InduceInto/InduceIntoBits.
func (scr *RoundScratch) induceFinish(h *Hypergraph) *Hypergraph {
	m := len(h.edges)
	outEdges, outVerts, _ := scr.assignSlots(m)
	dst := &scr.sample
	dst.grow(outVerts, outEdges)
	keep, pos := scr.keep, scr.pos
	if outVerts >= parallelScanThreshold {
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { induceScatter(h, keep, pos, dst, lo, hi) })
	} else {
		induceScatter(h, keep, pos, dst, 0, m)
	}
	dst.off[outEdges] = int32(outVerts)
	return dst.finish(h.n)
}

// induceClassify marks edges [lo, hi): keep[i] = the edge's size if it
// lies fully inside the induced set, else -1.
func induceClassify(h *Hypergraph, in func(V) bool, keep []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		e := h.edges[i]
		keep[i] = int32(len(e))
		for _, v := range e {
			if !in(v) {
				keep[i] = -1
				break
			}
		}
	}
}

// induceClassifyBits is induceClassify against a bitset.
func induceClassifyBits(h *Hypergraph, in bitset.Set, keep []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		e := h.edges[i]
		keep[i] = int32(len(e))
		for _, v := range e {
			if !in.Has(int(v)) {
				keep[i] = -1
				break
			}
		}
	}
}

// induceScatter copies surviving edges of [lo, hi) into their assigned
// arena slots.
func induceScatter(h *Hypergraph, keep, pos []int32, dst *csrBuf, lo, hi int) {
	for i := lo; i < hi; i++ {
		if keep[i] < 0 {
			continue
		}
		dst.off[keep[i]] = pos[i]
		copy(dst.verts[pos[i]:], h.edges[i])
	}
}

// NextRound applies one fused solver round to cur: edges touching a red
// vertex die (DiscardTouching), surviving edges shrink by the blue
// vertices (Shrink), and the result is re-canonicalized — all in single
// passes over the CSR arena into the scratch's other ring buffer. The
// second return value counts edges that became empty (fully blue), an
// independence violation for a correct pipeline.
//
// The returned hypergraph occupies scratch storage: it is valid until
// the next-but-one NextRound call on the same scratch (double
// buffering), so callers thread it as the next round's cur and never
// retain older rounds. isRed and isBlue must be disjoint.
func NextRound(cur *Hypergraph, isRed, isBlue func(V) bool, scr *RoundScratch) (*Hypergraph, int) {
	m := len(cur.edges)
	scr.growClassify(m)
	keep := scr.keep
	// Pass 1: classify every edge — dead on a red vertex, else its
	// post-shrink size (0 = emptied).
	if len(cur.verts) >= parallelScanThreshold {
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { roundClassify(cur, isRed, isBlue, keep, lo, hi) })
	} else {
		roundClassify(cur, isRed, isBlue, keep, 0, m)
	}
	return scr.roundFinish(cur, isBlue, nil)
}

// NextRoundBits is NextRound with the red and blue sets given as
// bitsets; a nil red set means no vertex is red (the BL stages), blue
// must be non-nil. The classification and scatter passes test
// membership with word probes.
func NextRoundBits(cur *Hypergraph, red, blue bitset.Set, scr *RoundScratch) (*Hypergraph, int) {
	m := len(cur.edges)
	scr.growClassify(m)
	keep := scr.keep
	if len(cur.verts) >= parallelScanThreshold {
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { roundClassifyBits(cur, red, blue, keep, lo, hi) })
	} else {
		roundClassifyBits(cur, red, blue, keep, 0, m)
	}
	return scr.roundFinish(cur, nil, blue)
}

// roundFinish runs the shared slot-assignment, scatter and
// re-canonicalization phases of NextRound/NextRoundBits. Exactly one of
// isBlue and blue is non-nil and selects the scatter flavor; the
// sequential path calls the scatter loops directly so a warm round
// allocates nothing.
func (scr *RoundScratch) roundFinish(cur *Hypergraph, isBlue func(V) bool, blue bitset.Set) (*Hypergraph, int) {
	m := len(cur.edges)
	outEdges, outVerts, emptied := scr.assignSlots(m)
	dst := scr.target(cur)
	dst.grow(outVerts, outEdges)
	keep, pos := scr.keep, scr.pos
	// Pass 2: scatter surviving vertices.
	switch {
	case outVerts >= parallelScanThreshold && blue != nil:
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { roundScatterBits(cur, blue, keep, pos, dst, lo, hi) })
	case outVerts >= parallelScanThreshold:
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { roundScatter(cur, isBlue, keep, pos, dst, lo, hi) })
	case blue != nil:
		roundScatterBits(cur, blue, keep, pos, dst, 0, m)
	default:
		roundScatter(cur, isBlue, keep, pos, dst, 0, m)
	}
	dst.off[outEdges] = int32(outVerts)
	next := dst.finish(cur.n)
	// Shrinking can break the lexicographic edge order and create
	// duplicate edges; detect in one comparison pass and
	// re-canonicalize only then (blue-free rounds skip this entirely).
	sorted := true
	for i := 1; i < outEdges; i++ {
		if !lessEdge(next.edges[i-1], next.edges[i]) {
			sorted = false
			break
		}
	}
	if !sorted {
		scr.recanonicalize(dst)
		next = &dst.hg
	}
	return next, emptied
}

// roundClassify computes, for each edge of [lo, hi), -1 if it touches a
// red vertex, else its post-shrink size (0 = would become empty).
func roundClassify(cur *Hypergraph, isRed, isBlue func(V) bool, keep []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		size := int32(0)
		for _, v := range cur.edges[i] {
			if isRed(v) {
				size = -1
				break
			}
			if !isBlue(v) {
				size++
			}
		}
		keep[i] = size
	}
}

// roundClassifyBits is roundClassify against bitsets; a nil red set
// skips the red test entirely.
func roundClassifyBits(cur *Hypergraph, red, blue bitset.Set, keep []int32, lo, hi int) {
	if red == nil {
		for i := lo; i < hi; i++ {
			size := int32(0)
			for _, v := range cur.edges[i] {
				if !blue.Has(int(v)) {
					size++
				}
			}
			keep[i] = size
		}
		return
	}
	for i := lo; i < hi; i++ {
		size := int32(0)
		for _, v := range cur.edges[i] {
			if red.Has(int(v)) {
				size = -1
				break
			}
			if !blue.Has(int(v)) {
				size++
			}
		}
		keep[i] = size
	}
}

// roundScatter writes the non-blue vertices of surviving edges of
// [lo, hi) into their assigned arena slots.
func roundScatter(cur *Hypergraph, isBlue func(V) bool, keep, pos []int32, dst *csrBuf, lo, hi int) {
	for i := lo; i < hi; i++ {
		if keep[i] < 0 {
			continue
		}
		dst.off[keep[i]] = pos[i]
		w := pos[i]
		for _, v := range cur.edges[i] {
			if !isBlue(v) {
				dst.verts[w] = v
				w++
			}
		}
	}
}

// roundScatterBits is roundScatter against a blue bitset.
func roundScatterBits(cur *Hypergraph, blue bitset.Set, keep, pos []int32, dst *csrBuf, lo, hi int) {
	for i := lo; i < hi; i++ {
		if keep[i] < 0 {
			continue
		}
		dst.off[keep[i]] = pos[i]
		w := pos[i]
		for _, v := range cur.edges[i] {
			if !blue.Has(int(v)) {
				dst.verts[w] = v
				w++
			}
		}
	}
}

// recanonicalize restores canonical edge order in dst: sort the
// headers, drop duplicates, then repack the arena in sorted order via
// the spill buffer (swapped back in — no allocation once warm).
func (scr *RoundScratch) recanonicalize(dst *csrBuf) {
	scr.stage.edges = dst.edges
	sort.Sort(&scr.stage)
	edges := dst.edges
	w := 0
	for i := range edges {
		if i == 0 || !equalEdge(edges[i], edges[i-1]) {
			edges[w] = edges[i]
			w++
		}
	}
	edges = edges[:w]
	total := 0
	for _, e := range edges {
		total += len(e)
	}
	if cap(scr.spill) < total {
		scr.spill = make([]V, total)
	} else {
		scr.spill = scr.spill[:total]
	}
	if cap(dst.off) < w+1 {
		dst.off = make([]int32, w+1)
	} else {
		dst.off = dst.off[:w+1]
	}
	pos := 0
	for i, e := range edges {
		dst.off[i] = int32(pos)
		copy(scr.spill[pos:], e)
		pos += len(e)
	}
	dst.off[w] = int32(total)
	// Swap arenas: the spill becomes the buffer's arena and the old
	// arena becomes the next spill.
	dst.verts, scr.spill = scr.spill, dst.verts
	dst.edges = dst.edges[:w]
	dst.finish(dst.hg.n)
}
