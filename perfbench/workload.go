package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	hypermis "repro"
	"repro/internal/hgio"
	"repro/internal/service"
)

// instance is one generated hypergraph and its binary request body.
type instance struct {
	h    *hypermis.Hypergraph
	body []byte
}

// request is one call the closed loop sends: a workload kind on one of
// the workload's instances under one solver seed.
type request struct {
	kind service.WorkKind
	inst int
	seed uint64
	// rank is the cache-restart key rank (its Zipf popularity order);
	// -1 marks a key no other request repeats.
	rank int
}

// probeSizes fixes how many calls each in-process layer probe of the
// traced run makes, so counts such as rounds per solve repeat exactly
// for a given seed.
type probeSizes struct {
	decode, solve, color, replay int
}

// workload is one traffic shape: its inputs, the requests each client
// sends, and how each answer is checked.
type workload struct {
	name    string
	seed    uint64
	algo    string
	par     int // the par= query parameter; 0 sends none
	clients int
	boots   int // daemon boots per run; setup_s is their median
	slices  int // slices of the measured window; see endToEndMetrics
	probes  probeSizes
	insts   []instance
	// stream returns client c's request sequence; a fresh call restarts
	// it. Client index clients is reserved for the setup requests.
	stream func(c int) func() request
	// cache-restart only: the pre-written ranks and the answers known
	// for every rank served so far.
	fixtureRanks int
	known        *fingerprints
}

var workloadNames = []string{"solve-small", "solve-heavy", "cache-restart"}

// tailPct is the percentile reported as latency_tail_ms on every
// workload. A window holds at least 100 requests on each, so at least
// ten samples lie beyond it. The fast workloads would support p99, but
// on a shared 2-CPU host their p99 moved by 30-50% between runs of the
// same code, while p90 moved by about 12%.
const tailPct = 90.0

const (
	smallN, smallM     = 1000, 3000
	smallInstances     = 64
	heavyN, heavyM     = 20000, 40000
	heavyMinD, heavyMx = 2, 12
	heavyInstances     = 4
	// cache-restart key space: cacheRanks keys in Zipf order, of which
	// the first cacheFixture are written to the durable store before the
	// daemon boots; the rest form the cold tail.
	cacheRanks   = 40000
	cacheFixture = 20000
	zipfS        = 1.0
)

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "solve-small":
		w := &workload{name: name, seed: seed, algo: "luby", clients: 2, boots: 31, slices: 10,
			probes: probeSizes{decode: 256, solve: 64, color: 16, replay: 400}}
		w.insts = graphs(seed, smallInstances, smallN, smallM)
		w.stream = uniqueStream(w, seed)
		return w, nil
	case "solve-heavy":
		w := &workload{name: name, seed: seed, algo: "sbl", par: 2, clients: 1, boots: 5, slices: 4,
			probes: probeSizes{decode: 16, solve: 6, color: 2, replay: 6}}
		w.insts = make([]instance, heavyInstances)
		for i := range w.insts {
			w.insts[i] = encode(hypermis.RandomMixed(mix(seed, 2, uint64(i)), heavyN, heavyM, heavyMinD, heavyMx))
		}
		w.stream = uniqueStream(w, seed)
		return w, nil
	case "cache-restart":
		w := &workload{name: name, seed: seed, algo: "luby", clients: 2, boots: 7, slices: 10,
			probes:       probeSizes{decode: 256, solve: 64, color: 16, replay: 1000},
			fixtureRanks: cacheFixture, known: &fingerprints{m: map[int]uint64{}}}
		w.insts = graphs(mix(seed, 3, 0), smallInstances, smallN, smallM)
		w.stream = zipfStream(w, seed)
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mix derives an independent 64-bit value from (seed, a, b) with the
// splitmix64 finalizer.
func mix(seed, a, b uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(a+1) + 0xbf58476d1ce4e5b9*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func graphs(seed uint64, count, n, m int) []instance {
	out := make([]instance, count)
	for i := range out {
		out[i] = encode(hypermis.RandomGraph(mix(seed, 1, uint64(i)), n, m))
	}
	return out
}

func encode(h *hypermis.Hypergraph) instance {
	var buf bytes.Buffer
	if err := hgio.WriteBinary(&buf, h); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return instance{h: h, body: buf.Bytes()}
}

// uniqueStream gives every request a seed no other request uses, so the
// daemon's LRU is consulted but never hits; instances go round-robin.
func uniqueStream(w *workload, seed uint64) func(int) func() request {
	base := mix(seed, 4, 0)
	return func(c int) func() request {
		i := 0
		return func() request {
			r := request{kind: service.WorkSolve, inst: (i + c) % len(w.insts),
				seed: base + uint64(c)<<32 + uint64(i), rank: -1}
			i++
			return r
		}
	}
}

// zipfStream draws key ranks from a Zipf(zipfS) law over cacheRanks
// keys. The setup stream always asks for rank 0, a pre-written key, so
// every boot's first request is a durable hit.
func zipfStream(w *workload, seed uint64) func(int) func() request {
	cdf := make([]float64, cacheRanks)
	total := 0.0
	for k := range cdf {
		total += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = total
	}
	return func(c int) func() request {
		if c == w.clients {
			return func() request { return rankRequest(seed, 0) }
		}
		rng := rand.New(rand.NewPCG(mix(seed, 5, uint64(c)), 0))
		return func() request {
			rank := sort.SearchFloat64s(cdf, rng.Float64()*total)
			return rankRequest(seed, min(rank, cacheRanks-1))
		}
	}
}

// rankRequest maps a cache-restart key rank to its request. The kind
// and instance follow from the rank alone, so every seed gives the
// same mix: of each ten consecutive ranks, seven are solves, two
// transversals and one a coloring. The seed picks the instances and the
// solver seeds.
func rankRequest(seed uint64, rank int) request {
	kind := service.WorkSolve
	switch rank % 10 {
	case 7, 8:
		kind = service.WorkTransversal
	case 9:
		kind = service.WorkColor
	}
	return request{kind: kind, inst: rank % smallInstances, seed: mix(seed, 7, 0) + uint64(rank), rank: rank}
}

// options are the solver options the daemon derives from req's query.
func (w *workload) options(req request) hypermis.Options {
	algo, err := hypermis.ParseAlgorithm(w.algo)
	if err != nil {
		panic(err) // workload algorithms are fixed names
	}
	return hypermis.Options{Algorithm: algo, Seed: req.seed, Parallelism: w.par}
}

// fingerprints remembers the first answer served for each repeated key,
// so a cache tier that serves a different (even if valid) answer for a
// key is caught.
type fingerprints struct {
	mu sync.Mutex
	m  map[int]uint64
}

func (f *fingerprints) check(rank int, fp uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.m[rank]; ok && old != fp {
		return fmt.Errorf("key rank %d served fingerprint %x, earlier %x", rank, fp, old)
	} else if !ok {
		f.m[rank] = fp
	}
	return nil
}

func fingerprint[T int | int32](xs []T) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// resultFingerprint is the fingerprint the daemon's response for a
// locally computed result must carry.
func resultFingerprint(res any) uint64 {
	switch r := res.(type) {
	case *hypermis.ColorResult:
		return fingerprint(r.Colors)
	case *hypermis.TransversalResult:
		return fingerprint(hypermis.ListFromMask(r.Transversal))
	case *hypermis.Result:
		return fingerprint(hypermis.ListFromMask(r.MIS))
	}
	panic(fmt.Sprintf("unexpected result %T", res))
}

// check verifies one 200 response body against req's instance with the
// library verifiers and, for repeated keys, against the answer the key
// was first served with.
func (w *workload) check(req request, body []byte) error {
	h := w.insts[req.inst].h
	var fp uint64
	switch req.kind {
	case service.WorkColor:
		var r service.ColorResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("color response: %w", err)
		}
		if r.N != h.N() || len(r.Colors) != h.N() {
			return fmt.Errorf("color response for n=%d has n=%d and %d colors", h.N(), r.N, len(r.Colors))
		}
		c := &hypermis.Coloring{Colors: r.Colors, NumColors: r.NumColors, ClassSizes: r.ClassSizes}
		if err := hypermis.VerifyColoring(h, c); err != nil {
			return err
		}
		fp = fingerprint(r.Colors)
	case service.WorkTransversal:
		var r service.TransversalResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("transversal response: %w", err)
		}
		mask, err := listMask(h.N(), r.Transversal)
		if err != nil {
			return err
		}
		if r.Size != len(r.Transversal) || r.Size+r.MISSize != h.N() {
			return fmt.Errorf("transversal response sizes %d+%d for n=%d", r.Size, r.MISSize, h.N())
		}
		if err := hypermis.VerifyMinimalTransversal(h, mask); err != nil {
			return err
		}
		fp = fingerprint(r.Transversal)
	default:
		var r service.SolveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("solve response: %w", err)
		}
		mask, err := listMask(h.N(), r.MIS)
		if err != nil {
			return err
		}
		if r.Size != len(r.MIS) {
			return fmt.Errorf("solve response size %d with %d members", r.Size, len(r.MIS))
		}
		if err := hypermis.VerifyMIS(h, mask); err != nil {
			return err
		}
		fp = fingerprint(r.MIS)
	}
	if req.rank >= 0 && w.known != nil {
		return w.known.check(req.rank, fp)
	}
	return nil
}

// listMask turns an ascending member list into a mask, rejecting ids
// outside [0, n) and repeats.
func listMask(n int, xs []int) ([]bool, error) {
	mask := make([]bool, n)
	for _, v := range xs {
		if v < 0 || v >= n || mask[v] {
			return nil, fmt.Errorf("member %d out of range or repeated (n=%d)", v, n)
		}
		mask[v] = true
	}
	return mask, nil
}
