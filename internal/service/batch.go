package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	hypermis "repro"
	"repro/internal/admit"
	"repro/internal/hgio"
	"repro/internal/obs"
)

// ContentTypeNDJSON frames batch requests and responses: one JSON
// document per line, no enclosing array, so both sides can stream.
const ContentTypeNDJSON = "application/x-ndjson"

// BatchItem is one line of the NDJSON body of POST /v1/batch: a
// self-contained work request (a solve by default — see Kind). Exactly
// one of Instance (hgio text
// format, newlines included), InstanceB64 (standard base64 of the hgio
// binary format) or Ref (the id of an earlier item in the same batch,
// whose already-parsed instance is reused) carries the hypergraph. The
// remaining fields mirror the query parameters of POST /v1/solve and
// default the same way. The type is shared by the server, the
// `hypermis batch` CLI and cmd/hypermisload, so the framing cannot
// drift between them.
type BatchItem struct {
	// ID is echoed back verbatim in the item's result, for clients that
	// correlate by name instead of by index. It is also the anchor Ref
	// resolves against: later items in the same batch may reuse this
	// item's instance without resending it.
	ID string `json:"id,omitempty"`
	// Kind selects the item's workload: "solve" (the default when
	// empty), "color" or "transversal". The remaining options apply to
	// every kind (a coloring seeds class c with Seed+c).
	Kind        string  `json:"kind,omitempty"`
	Algo        string  `json:"algo,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	Alpha       float64 `json:"alpha,omitempty"`
	GreedyTail  bool    `json:"greedytail,omitempty"`
	Cost        bool    `json:"cost,omitempty"`
	Trace       bool    `json:"trace,omitempty"`
	Par         int     `json:"par,omitempty"`
	Instance    string  `json:"instance,omitempty"`
	InstanceB64 string  `json:"instance_b64,omitempty"`
	// Ref reuses the instance of the earlier item whose ID equals Ref —
	// the batch is parsed in stream order, so forward references are
	// errors. Solving k seeds over one instance therefore parses it
	// once, not k times (if two earlier items share an id, the later
	// one wins).
	Ref string `json:"ref,omitempty"`
	// Priority names the item's admission class (interactive, batch or
	// background); empty defaults to batch, the class for work with no
	// client waiting on each individual result.
	Priority string `json:"priority,omitempty"`
}

// Options converts the item's solve parameters into hypermis.Options,
// applying the same validation as the /v1/solve query parameters.
func (it BatchItem) Options() (hypermis.Options, error) {
	var opts hypermis.Options
	algo, err := hypermis.ParseAlgorithm(it.Algo)
	if err != nil {
		return opts, err
	}
	opts.Algorithm = algo
	opts.Seed = it.Seed
	if it.Alpha < 0 || it.Alpha >= 1 {
		return opts, fmt.Errorf("bad alpha %g (want [0,1))", it.Alpha)
	}
	opts.Alpha = it.Alpha
	opts.UseGreedyTail = it.GreedyTail
	opts.CollectCost = it.Cost
	opts.Trace = it.Trace
	if it.Par < 0 || it.Par > maxParRequest {
		return opts, fmt.Errorf("bad par %d (want 0..%d)", it.Par, maxParRequest)
	}
	opts.Parallelism = it.Par
	return opts, nil
}

// Hypergraph decodes the item's instance payload. Items using Ref need
// the batch-scoped context a BatchParser carries; use one of those when
// decoding a whole stream.
func (it BatchItem) Hypergraph() (*hypermis.Hypergraph, error) {
	return NewBatchParser().Instance(&it)
}

// BatchParser decodes the instances of one batch's items in stream
// order: decode buffers (readers, base64 scratch) are reused across
// items, and every successfully parsed instance is remembered under
// its item's ID so later items can Ref it instead of resending the
// bytes. One server batch request, one local `hypermis batch` run and
// one hypermisload batch step each use exactly one BatchParser.
type BatchParser struct {
	scratch parseScratch
	refs    map[string]*hypermis.Hypergraph
}

// NewBatchParser returns a parser for one batch stream.
func NewBatchParser() *BatchParser {
	return &BatchParser{refs: make(map[string]*hypermis.Hypergraph)}
}

// Instance resolves it's hypergraph: a Ref looks up an earlier item's
// parsed instance, anything else parses the item's own payload (and
// registers it under the item's ID for later Refs).
func (p *BatchParser) Instance(it *BatchItem) (*hypermis.Hypergraph, error) {
	if it.Ref != "" {
		if it.Instance != "" || it.InstanceB64 != "" {
			return nil, errors.New("ref excludes instance and instance_b64")
		}
		h, ok := p.refs[it.Ref]
		if !ok {
			return nil, fmt.Errorf("ref %q does not name an earlier item id in this batch", it.Ref)
		}
		// A ref item's own id is a valid anchor too (ref chains), per
		// docs/api.md: ref names the id of any earlier item.
		if it.ID != "" {
			p.refs[it.ID] = h
		}
		return h, nil
	}
	h, err := p.scratch.instance(it)
	if err != nil {
		return nil, err
	}
	if it.ID != "" {
		p.refs[it.ID] = h
	}
	return h, nil
}

// BatchItemResult is one line of the NDJSON response of POST /v1/batch.
// Index is the item's zero-based position in the request stream (the
// response arrives in completion order, not submission order); exactly
// one of Solve, Color, Transversal (matching the item's Kind) and Error
// is set. A per-item Error never aborts the rest of the batch.
type BatchItemResult struct {
	Index       int                  `json:"index"`
	ID          string               `json:"id,omitempty"`
	Error       string               `json:"error,omitempty"`
	Solve       *SolveResponse       `json:"solve,omitempty"`
	Color       *ColorResponse       `json:"color,omitempty"`
	Transversal *TransversalResponse `json:"transversal,omitempty"`
}

// parseScratch holds the decode buffers one batch request reuses across
// its items: the string reader the text parser consumes and the base64
// scratch binary payloads decode from. The built Hypergraphs themselves
// must be freshly allocated (they outlive parsing — jobs, cache entries
// and responses hold them), so only the transient decoding state is
// shared.
type parseScratch struct {
	sr  strings.Reader
	b64 []byte
}

func (ps *parseScratch) instance(it *BatchItem) (*hypermis.Hypergraph, error) {
	var h *hypermis.Hypergraph
	var err error
	switch {
	case it.Instance != "" && it.InstanceB64 != "":
		return nil, errors.New("instance and instance_b64 are mutually exclusive")
	case it.Instance != "":
		ps.sr.Reset(it.Instance)
		h, err = hgio.ReadText(&ps.sr)
	case it.InstanceB64 != "":
		need := base64.StdEncoding.DecodedLen(len(it.InstanceB64))
		if cap(ps.b64) < need {
			ps.b64 = make([]byte, need)
		}
		var n int
		n, err = base64.StdEncoding.Decode(ps.b64[:need], []byte(it.InstanceB64))
		if err != nil {
			return nil, fmt.Errorf("instance_b64: %w", err)
		}
		h, err = hgio.DecodeBinary(ps.b64[:n])
	default:
		return nil, errors.New("missing instance (set instance or instance_b64)")
	}
	if err != nil {
		return nil, err
	}
	if h.N() > maxInstanceN {
		return nil, fmt.Errorf("instance declares %d vertices, limit %d", h.N(), maxInstanceN)
	}
	return h, nil
}

// timedResult carries an item's result to the response writer together
// with the item's arrival time, so the streaming latency histogram can
// measure read-to-flush per item.
type timedResult struct {
	res   BatchItemResult
	start time.Time
}

// workBlocking is the kind-generic *Class scheduling with the bounded
// queue's fail-fast turned into waiting: the batch and async-job paths
// own no client connection that needs an immediate 503, so on
// ErrQueueFull they back off — capped exponential with full jitter, so
// a queue-full burst doesn't resubmit every stalled item in lockstep —
// and retry until ctx expires. Other errors pass through (an
// AdmissionError is terminal: retrying a deadline that cannot be met
// only adds load). The cache key is computed once and counters fire
// only on the first attempt — see workKeyed. Every backoff sleep bumps
// batch_backoff_total, the saturation signal for this path.
func (s *Server) workBlocking(ctx context.Context, kind WorkKind, h *hypermis.Hypergraph, opts hypermis.Options, prio admit.Priority) (any, bool, error) {
	key := WorkKey(kind, h, opts)
	for attempt := 1; ; attempt++ {
		res, cached, err := s.workKeyed(ctx, kind, h, opts, key, prio, attempt == 1)
		if !errors.Is(err, ErrQueueFull) {
			return res, cached, err
		}
		// 1, 2, 4, ... 32ms ceilings, jittered uniformly over (0, ceiling]
		// so concurrent stalled items spread out instead of thundering.
		ceiling := time.Millisecond << min(attempt-1, 5)
		backoff := time.Duration(rand.Int64N(int64(ceiling))) + 1
		s.metrics.BatchBackoff.Add(1)
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(backoff):
		}
	}
}

// handleBatch streams POST /v1/batch: NDJSON items in, NDJSON results
// out, in completion order. Items fan out through the scheduler (same
// bounded queue, workspace pool and per-item cache lookups as
// /v1/solve) under an in-flight window of 2×Workers, and each result
// line is flushed as soon as its item completes. Backpressure is
// end-to-end: a slow client blocks the response writer, which fills the
// results channel, which stalls the window, which stops the request
// scanner — the batch never buffers more than the window.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.allowClient(w, r) {
		return
	}
	s.metrics.BatchRequests.Add(1)
	w.Header().Set("Content-Type", ContentTypeNDJSON)
	flusher, _ := w.(http.Flusher)
	// The handler reads items while writing results. On HTTP/1.x the
	// server closes an unread body at the first response write unless
	// full-duplex is enabled; HTTP/2 is always full-duplex (the call
	// errors there, harmlessly).
	_ = http.NewResponseController(w).EnableFullDuplex()

	window := 2 * s.cfg.Workers
	if window > s.cfg.MaxBatchItems {
		window = s.cfg.MaxBatchItems
	}
	if window < 1 {
		window = 1
	}
	results := make(chan timedResult, window)
	sem := make(chan struct{}, window)
	ctx := r.Context()

	go func() {
		var wg sync.WaitGroup
		defer func() {
			wg.Wait()
			close(results)
		}()
		emit := func(tr timedResult) {
			sem <- struct{}{}
			results <- tr
			<-sem
		}
		sc := bufio.NewScanner(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
		sc.Buffer(make([]byte, 1<<20), maxBodyBytes)
		// One parser for the whole batch: items decode through shared
		// readers and one base64 buffer instead of per-item ones, and
		// ref items reuse earlier instances without reparsing.
		parser := NewBatchParser()
		index := 0
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			if index >= s.cfg.MaxBatchItems {
				// A stream-level notice, not a carried item: it counts in
				// neither batch_items_total nor batch_item_errors, keeping
				// errors/items a meaningful per-item failure rate.
				emit(timedResult{BatchItemResult{
					Index: index,
					Error: fmt.Sprintf("batch truncated: limit is %d items per request", s.cfg.MaxBatchItems),
				}, time.Now()})
				return
			}
			start := time.Now()
			s.metrics.BatchItems.Add(1)
			var it BatchItem
			if err := json.Unmarshal(line, &it); err != nil {
				// A malformed line fails this item only; the stream stays
				// line-framed, so subsequent items still parse.
				s.metrics.BatchItemErrors.Add(1)
				emit(timedResult{BatchItemResult{Index: index, Error: fmt.Sprintf("bad item JSON: %v", err)}, start})
				index++
				continue
			}
			res := BatchItemResult{Index: index, ID: it.ID}
			opts, err := it.Options()
			var kind WorkKind
			if err == nil {
				kind, err = ParseWorkKind(it.Kind)
			}
			var prio admit.Priority
			if err == nil {
				prio, err = admit.Parse(it.Priority, admit.Batch)
			}
			if err == nil {
				var h *hypermis.Hypergraph
				h, err = parser.Instance(&it)
				if err == nil {
					sem <- struct{}{}
					wg.Add(1)
					go func(res BatchItemResult, h *hypermis.Hypergraph, opts hypermis.Options, start time.Time) {
						defer wg.Done()
						worked, cached, err := s.workBlocking(ctx, kind, h, opts, prio)
						if err != nil {
							s.metrics.BatchItemErrors.Add(1)
							res.Error = err.Error()
						} else {
							switch kind {
							case WorkColor:
								res.Color = ColorResponseFor(h, worked.(*hypermis.ColorResult), cached, time.Since(start))
							case WorkTransversal:
								res.Transversal = TransversalResponseFor(h, worked.(*hypermis.TransversalResult), cached, time.Since(start))
							default:
								res.Solve = SolveResponseFor(h, worked.(*hypermis.Result), cached, time.Since(start))
							}
						}
						results <- timedResult{res, start}
						<-sem
					}(res, h, opts, start)
					index++
					continue
				}
			}
			s.metrics.BatchItemErrors.Add(1)
			res.Error = err.Error()
			emit(timedResult{res, start})
			index++
		}
		if err := sc.Err(); err != nil {
			// Stream-level failure record — not an item, not counted.
			emit(timedResult{BatchItemResult{Index: index, Error: fmt.Sprintf("reading batch: %v", err)}, time.Now()})
		}
	}()

	trace := obs.From(r.Context())
	enc := json.NewEncoder(w)
	flushed := 0
	for tr := range results {
		sp := trace.StartSpan("flush")
		_ = enc.Encode(tr.res)
		if flusher != nil {
			flusher.Flush()
		}
		sp.End()
		flushed++
		s.metrics.BatchItemLatency.Observe(time.Since(tr.start))
	}
	trace.SetDetail("items=%d", flushed)
}
