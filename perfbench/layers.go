package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	hypermis "repro"
	"repro/internal/admit"
	"repro/internal/durable"
	"repro/internal/hgio"
	"repro/internal/service"
)

// perLayer lists the metrics of a traced run, in report order.
var perLayer = []metricDef{
	{"hgio.decode_ms", "ms"},
	{"hgio.decode_alloc_kb", "KB"},
	{"hgio.digest_ms", "ms"},
	{"service.call_ms", "ms"},
	{"service.self_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.response_kb", "KB"},
	{"service.http_overhead_ms", "ms"},
	{"service.lru_hit_ratio", "ratio"},
	{"durable.hit_ratio", "ratio"},
	{"durable.get_us", "us"},
	{"durable.write_errors", "count"},
	{"durable.recover_s", "s"},
	{"solver.solve_ms", "ms"},
	{"solver.rounds_per_solve", "count"},
	{"solver.alloc_kb_per_solve", "KB"},
	{"par.speedup", "x"},
	{"par.handoff_ratio", "ratio"},
	{"coloring.color_ms", "ms"},
	{"coloring.classes", "count"},
	{"transversal.ms", "ms"},
	{"daemon.alloc_mb_per_req", "MB"},
	{"daemon.gc_per_req", "count"},
	{"daemon.gc_pause_ms_per_req", "ms"},
	{"obs.tracing_cpu_ms_per_req", "ms"},
}

// informational lists figures of a traced run that are printed with the
// breakdown but not reported in its result, because neither direction
// is better for them: the counts grow with the number of misses and the
// size of the fixture, and the shares are parts of one total, so one
// layer getting faster raises the others.
var informational = []metricDef{
	{"durable.writes", "count"},
	{"durable.records_recovered", "count"},
	{"share.hgio", "ratio"},
	{"share.cache", "ratio"},
	{"share.service", "ratio"},
	{"share.solver", "ratio"},
	{"share.encode", "ratio"},
}

// replayLayers are the span names of one replayed request below its
// "request" root, in request order, with the share metric each one's
// self time counts toward. The service call's span is named after how
// it was answered: cache.lru or cache.durable for a hit in that tier,
// service.call for a miss the service dispatched to a solver.
var replayLayers = []struct{ span, share string }{
	{"hgio.decode", "share.hgio"},
	{"cache.lru", "share.cache"},
	{"cache.durable", "share.cache"},
	{"service.call", "share.service"},
	{"solver.round", "share.solver"},
	{"service.encode", "share.encode"},
}

// span is one timed call of the traced run. Spans of one replayed
// request share Req; Parent is 0 for a request's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its id.
func (t *tracer) open(req, parent int, name string) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// close ends span id.
func (t *tracer) close(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename sets span id's name.
func (t *tracer) rename(id int, name string) {
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(req, parent int, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// selfTimes is each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName sums self time per span name, with the roots' total
// duration under "".
func (t *tracer) selfByName() map[string]time.Duration {
	self := selfTimes(t.spans)
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += self[i]
		if s.Parent == 0 {
			out[""] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// traced measures a daemon window with the shipped defaults (request
// tracing on) plus the pprof listener, a second window under -notrace,
// and then each layer in process with the benchmark's own spans.
func (e *env) traced(ctx context.Context, w *workload) (*result, error) {
	m := map[string]float64{}
	setupReq := w.stream(w.clients)
	on := &session{name: "traced", full: true}
	off := &session{name: "notrace"}
	err := e.boot(ctx, w, on, setupReq())
	if err == nil {
		err = e.boot(ctx, w, off, setupReq(), "-notrace")
	}
	if err == nil {
		err = e.measure(ctx, []*session{on, off}, 4)
	}
	for _, s := range []*session{on, off} {
		if serr := s.shutdown(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return nil, err
	}
	daemonLayers(m, on)
	onM, offM := on.endToEndMetrics(), off.endToEndMetrics()
	m["obs.tracing_cpu_ms_per_req"] = onM["cpu_ms_per_req"] - offM["cpu_ms_per_req"]

	tr := newTracer()
	var replayed tally
	if err := e.probeLayers(ctx, w, tr, m, &replayed); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(e.dir, fmt.Sprintf("spans-seed%d.jsonl", w.seed))); err != nil {
		return nil, err
	}
	layers := tr.selfByName()
	for _, l := range replayLayers {
		m[l.share] += float64(layers[l.span]) / float64(max(1, layers[""]))
	}
	printBreakdown(w, layers, m)
	printPhases(&on.phases)
	printSession("end-to-end, daemon with request tracing (the default)", w, on, onM)
	printPhases(&off.phases)
	printSession("end-to-end, daemon with -notrace", w, off, offM)
	fmt.Printf("in-process replay: %d requests, %d failed\n", replayed.Attempted, replayed.Failed)
	t := on.total()
	t.merge(off.total())
	t.merge(replayed)
	return newResult(t, m, perLayer), nil
}

func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// daemonLayers derives the per-layer metrics the daemon's own counters
// give over the traced window.
func daemonLayers(m map[string]float64, s *session) {
	b, a := s.before.stats, s.after.stats
	n := float64(max(1, s.win.tally.Attempted))
	p50, _ := percentile(s.win.lats, 50)
	m["service.http_overhead_ms"] = ms(p50) - a.LatencyP50Ms
	m["service.lru_hit_ratio"] = ratio(a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses)
	m["durable.hit_ratio"] = ratio(a.DurableHits-b.DurableHits, a.DurableMisses-b.DurableMisses)
	m["durable.writes"] = float64(a.DurableWrites - b.DurableWrites)
	m["durable.write_errors"] = float64(a.DurableWriteErrors - b.DurableWriteErrors)
	m["par.handoff_ratio"] = ratio(a.ParHandoffs-b.ParHandoffs, a.ParInline-b.ParInline)
	m["daemon.alloc_mb_per_req"] = float64(s.after.mem.totalAlloc-s.before.mem.totalAlloc) / (1 << 20) / n
	m["daemon.gc_per_req"] = float64(s.after.mem.numGC-s.before.mem.numGC) / n
	m["daemon.gc_pause_ms_per_req"] = ms(gcPause(s.before.mem, s.after.mem)) / n
}

// timed calls f n times and returns the median call time.
func timed(n int, f func(i int) error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return median(ds), nil
}

// allocKB is the heap the n calls of f allocate, per call, in KiB.
func allocKB(n int, f func(i int) error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range n {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), nil
}

// probeRequests is the first n requests of client 0's stream with the
// kind forced to kind.
func probeRequests(w *workload, n int, kind service.WorkKind) []request {
	next := w.stream(0)
	out := make([]request, n)
	for i := range out {
		out[i] = next()
		out[i].kind = kind
	}
	return out
}

// probeLayers times each layer's public calls on the workload's own
// inputs, then replays the workload's requests through an in-process
// service with a span around every call.
func (e *env) probeLayers(ctx context.Context, w *workload, tr *tracer, m map[string]float64, t *tally) error {
	degree := max(1, w.par)

	// hgio: decode and digest the bodies of the workload's requests.
	solves := probeRequests(w, w.probes.decode, service.WorkSolve)
	hs := make([]*hypermis.Hypergraph, len(solves))
	decode := func(i int) (err error) {
		hs[i], err = hgio.ReadBinary(bytes.NewReader(w.insts[solves[i].inst].body))
		return err
	}
	var err error
	if m["hgio.decode_alloc_kb"], err = allocKB(len(solves), decode); err != nil {
		return err
	}
	d, err := timed(len(solves), decode)
	if err != nil {
		return err
	}
	m["hgio.decode_ms"] = ms(d)
	d, _ = timed(len(solves), func(i int) error {
		service.WorkKey(solves[i].kind, hs[i], w.options(solves[i]))
		return nil
	})
	m["hgio.digest_ms"] = ms(d)

	// solver: SolveCtx on a pooled workspace at par=1 and par=2, as a
	// daemon worker runs it; alloc and rounds at the workload's degree.
	pool := hypermis.NewParPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	ws := hypermis.NewWorkspace()
	solves = solves[:w.probes.solve]
	results := make([]any, len(solves))
	solveAt := func(par int) func(i int) error {
		return func(i int) (err error) {
			results[i], err = w.compute(ctx, solves[i], ws, pool, par)
			return err
		}
	}
	if err := solveAt(degree)(0); err != nil { // grow the workspace
		return err
	}
	perPar := map[int]time.Duration{}
	for _, par := range []int{1, 2} {
		if perPar[par], err = timed(len(solves), solveAt(par)); err != nil {
			return err
		}
	}
	if m["solver.alloc_kb_per_solve"], err = allocKB(len(solves), solveAt(degree)); err != nil {
		return err
	}
	rounds := 0
	for _, r := range results {
		rounds += r.(*hypermis.Result).Rounds
	}
	m["solver.solve_ms"] = ms(perPar[degree])
	m["solver.rounds_per_solve"] = float64(rounds) / float64(len(results))
	m["par.speedup"] = float64(perPar[1]) / float64(perPar[2])

	// coloring and transversal on the workload's instances.
	colors := probeRequests(w, w.probes.color, service.WorkColor)
	classes := 0
	d, err = timed(len(colors), func(i int) error {
		res, err := w.compute(ctx, colors[i], ws, pool, degree)
		if err == nil {
			classes += res.(*hypermis.ColorResult).NumColors
		}
		return err
	})
	if err != nil {
		return err
	}
	m["coloring.color_ms"] = ms(d)
	m["coloring.classes"] = float64(classes) / float64(len(colors))
	trans := probeRequests(w, w.probes.color, service.WorkTransversal)
	if d, err = timed(len(trans), func(i int) error {
		_, err := w.compute(ctx, trans[i], ws, pool, degree)
		return err
	}); err != nil {
		return err
	}
	m["transversal.ms"] = ms(d)

	// durable: recovery and lookups. cache-restart recovers its own
	// fixture; the other workloads recover a store of their probe
	// results.
	dir := filepath.Join(e.dir, "caches", "probe")
	type keyed struct {
		kind service.WorkKind
		key  string
	}
	var keys []keyed
	if w.fixtureRanks > 0 {
		if err := copyDir(filepath.Join(e.dir, "fixture"), dir); err != nil {
			return err
		}
		for r := 0; r < w.fixtureRanks; r += max(1, w.fixtureRanks/2000) {
			req := rankRequest(w.seed, r)
			keys = append(keys, keyed{req.kind, service.WorkKey(req.kind, w.insts[req.inst].h, w.options(req))})
		}
	} else {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		s, err := durable.Open(durable.Config{Dir: dir})
		if err != nil {
			return err
		}
		for i, req := range solves {
			key := service.WorkKey(req.kind, w.insts[req.inst].h, w.options(req))
			put(s, key, results[i])
			keys = append(keys, keyed{req.kind, key})
		}
		s.Flush()
		if err := s.Close(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	store, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer store.Close()
	m["durable.recover_s"] = time.Since(t0).Seconds()
	m["durable.records_recovered"] = float64(store.Counters().Recovered)
	d, err = timed(len(keys), func(i int) error {
		var ok bool
		switch keys[i].kind {
		case service.WorkColor:
			_, ok = store.GetColor(keys[i].key)
		case service.WorkTransversal:
			_, ok = store.GetTransversal(keys[i].key)
		default:
			_, ok = store.Get(keys[i].key)
		}
		if !ok {
			return fmt.Errorf("durable probe: key %q missing", keys[i].key)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["durable.get_us"] = float64(d) / float64(time.Microsecond)

	// Replay client 0's requests through an in-process service built
	// with the daemon's defaults (and its durable tier on cache-restart).
	cfg := service.Config{}
	if w.fixtureRanks > 0 {
		cfg.Durable = store
	}
	srv := service.New(cfg)
	defer srv.Close()
	return replay(ctx, w, srv, store, tr, m, t)
}

// replay sends w.probes.replay requests through srv, one at a time,
// with a span around decode, the service call, every solver round
// inside it, and the response encode. Every answer is verified.
func replay(ctx context.Context, w *workload, srv *service.Server, store *durable.Store, tr *tracer, m map[string]float64, t *tally) error {
	next := w.stream(0)
	var calls, selfs, encodes []time.Duration
	var respBytes int
	for i := 1; i <= w.probes.replay; i++ {
		req := next()
		root := tr.open(i, 0, "request")
		id := tr.open(i, root, "hgio.decode")
		h, err := hgio.ReadBinary(bytes.NewReader(w.insts[req.inst].body))
		tr.close(id)
		if err != nil {
			return err
		}
		opts := w.options(req)
		call := tr.open(i, root, "service.call")
		var solver time.Duration
		opts.RoundObserver = func(rt hypermis.RoundTrace) {
			now := time.Now()
			solver += rt.Elapsed
			tr.add(i, call, "solver.round", now.Add(-rt.Elapsed), now)
		}
		durableHits := store.Counters().Hits
		t0 := time.Now()
		resp, hit, err := serviceCall(ctx, srv, req.kind, h, opts)
		took := time.Since(t0)
		tr.close(call)
		if hit && w.fixtureRanks > 0 && store.Counters().Hits > durableHits {
			tr.rename(call, "cache.durable")
		} else if hit {
			tr.rename(call, "cache.lru")
		}
		if err != nil {
			t.add(failedStatus)
			tr.close(root)
			continue
		}
		enc := tr.open(i, root, "service.encode")
		t1 := time.Now()
		b, err := json.Marshal(resp(took))
		encodes = append(encodes, time.Since(t1))
		tr.close(enc)
		tr.close(root)
		if err != nil {
			return err
		}
		calls = append(calls, took)
		selfs = append(selfs, took-solver)
		respBytes += len(b)
		if err := w.check(req, b); err != nil {
			t.add(wrong)
			fmt.Println("replay failure:", err)
			continue
		}
		t.add(succeeded)
	}
	m["service.call_ms"] = ms(median(calls))
	m["service.self_ms"] = ms(median(selfs))
	m["service.encode_ms"] = ms(median(encodes))
	m["service.response_kb"] = float64(respBytes) / 1024 / float64(max(1, len(calls)))

	return nil
}

// serviceCall runs one request through the service's public in-process
// API at interactive priority. It returns a builder of the wire
// response and whether a cache tier answered.
func serviceCall(ctx context.Context, srv *service.Server, kind service.WorkKind, h *hypermis.Hypergraph, opts hypermis.Options) (func(time.Duration) any, bool, error) {
	switch kind {
	case service.WorkColor:
		res, hit, err := srv.ColorClass(ctx, h, opts, admit.Interactive)
		return func(d time.Duration) any { return service.ColorResponseFor(h, res, hit, d) }, hit, err
	case service.WorkTransversal:
		res, hit, err := srv.TransversalClass(ctx, h, opts, admit.Interactive)
		return func(d time.Duration) any { return service.TransversalResponseFor(h, res, hit, d) }, hit, err
	default:
		res, hit, err := srv.SolveClass(ctx, h, opts, admit.Interactive)
		return func(d time.Duration) any { return service.SolveResponseFor(h, res, hit, d) }, hit, err
	}
}

// printBreakdown prints the replay's self time per span and per layer,
// the dominant layer, and every per-layer metric.
func printBreakdown(w *workload, layers map[string]time.Duration, m map[string]float64) {
	fmt.Printf("layer breakdown: self time over an in-process replay of %d %s requests\n", w.probes.replay, w.name)
	dominant := replayLayers[0].share
	for _, l := range replayLayers {
		fmt.Printf("  %-15s %9.3f ms/req  %5.1f%%  (%s %.1f%%)\n", l.span, ms(layers[l.span])/float64(w.probes.replay),
			100*float64(layers[l.span])/float64(max(1, layers[""])), l.share, 100*m[l.share])
		if m[l.share] > m[dominant] {
			dominant = l.share
		}
	}
	fmt.Printf("dominant layer: %s\n", strings.TrimPrefix(dominant, "share."))
	fmt.Println("per-layer metrics:")
	for _, d := range perLayer {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	fmt.Println("informational (not in the result):")
	for _, d := range informational {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
}
