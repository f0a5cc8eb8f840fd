package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	hypermis "repro"
	"repro/internal/admit"
	"repro/internal/hgio"
	"repro/internal/obs"
)

// Content types for instance payloads. Text is the default; anything
// containing "binary" or "octet-stream" selects the hgio binary format.
const (
	ContentTypeText   = "text/x-hypergraph"
	ContentTypeBinary = "application/x-hypergraph-binary"
)

// maxBodyBytes bounds instance uploads (64 MiB — far above any
// plausible request, just a backstop against accidental floods).
const maxBodyBytes = 64 << 20

// maxInstanceN caps the declared vertex count of a submitted or
// generated instance. The header's n drives O(n) allocations in every
// solver and in verification, so without this cap a few-byte request
// declaring billions of vertices is a memory-exhaustion attack.
const maxInstanceN = 4 << 20

// maxParRequest bounds the parallelism degree a request may ask for
// (the scheduler caps grants far lower; this is input sanitation).
const maxParRequest = 4096

// SolveResponse is the JSON body of POST /v1/solve. Trace is present
// only on ?trace=1 requests: one record per outer solver round with the
// residual shape (n, m, dim), the vertices decided, and the round's
// wall time in nanoseconds.
type SolveResponse struct {
	Algorithm string                `json:"algorithm"`
	N         int                   `json:"n"`
	M         int                   `json:"m"`
	Size      int                   `json:"size"`
	Rounds    int                   `json:"rounds"`
	Cached    bool                  `json:"cached"`
	ElapsedMs float64               `json:"elapsed_ms"`
	Depth     int64                 `json:"depth,omitempty"`
	Work      int64                 `json:"work,omitempty"`
	Trace     []hypermis.RoundTrace `json:"trace,omitempty"`
	MIS       []int                 `json:"mis"`
}

// VerifyResponse is the JSON body of POST /v1/verify.
type VerifyResponse struct {
	OK        bool   `json:"ok"`
	Size      int    `json:"size"`
	Violation string `json:"violation,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler mounts the service endpoints documented in the package
// comment onto a fresh mux serving s, wrapped with the per-request
// observability layer (trace header, flight recorder, request log —
// see trace.go). /metrics and /v1/debug/requests serve the
// observability state itself and stay outside the wrap: scrapes and
// debug pulls should not pollute the flight recorder they read.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/color", s.handleColor)
	mux.HandleFunc("POST /v1/transversal", s.handleTransversal)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	traced := s.withObs(mux)

	outer := http.NewServeMux()
	outer.HandleFunc("GET /metrics", s.handleMetrics)
	outer.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	outer.Handle("/", traced)
	return outer
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders d as an integral Retry-After header value:
// rounded up (never telling a client to retry sooner than the estimate)
// and floored at 1, the smallest value the header can honestly carry.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// clientKey identifies the requester for rate limiting: the
// X-Hypermis-Client header when the client names itself, else the
// remote IP (without the ephemeral port, so one client is one bucket).
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Hypermis-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// allowClient charges the request against its client's rate-limit
// bucket; over-limit requests are answered 429 with an honest
// Retry-After and false is returned. A nil limiter admits everything.
func (s *Server) allowClient(w http.ResponseWriter, r *http.Request) bool {
	ok, retryAfter := s.limiter.Allow(clientKey(r))
	if ok {
		return true
	}
	s.metrics.RateLimited.Add(1)
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	httpError(w, http.StatusTooManyRequests, "rate limit exceeded for client %q", clientKey(r))
	return false
}

// requestPriority resolves the request's admission class: the
// ?priority= query parameter wins, then the X-Hypermis-Priority
// header, then def (interactive for /v1/solve, batch for the bulk
// endpoints). Unknown values are the caller's 400.
func requestPriority(r *http.Request, def admit.Priority) (admit.Priority, error) {
	v := r.URL.Query().Get("priority")
	if v == "" {
		v = r.Header.Get("X-Hypermis-Priority")
	}
	return admit.Parse(v, def)
}

// requestDeadline applies the ?deadline_ms= query parameter — the
// client's end-to-end latency budget — to ctx, enabling deadline-aware
// admission for this request. Zero/absent leaves ctx alone.
func requestDeadline(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	v := r.URL.Query().Get("deadline_ms")
	if v == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return ctx, func() {}, fmt.Errorf("bad deadline_ms %q (want a positive integer)", v)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

func wantsBinary(contentType string) bool {
	return strings.Contains(contentType, "binary") || strings.Contains(contentType, "octet-stream")
}

// readInstanceBody decodes the request's instance under a "decode"
// span. A binary body is read off the wire first, so the span times the
// decode alone; the text parser streams, so its span includes the read.
func readInstanceBody(r *http.Request) (*hypermis.Hypergraph, error) {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	tr := obs.From(r.Context())
	var h *hypermis.Hypergraph
	var err error
	if wantsBinary(r.Header.Get("Content-Type")) {
		err = hgio.ReadAll(body, func(b []byte) error {
			sp := tr.StartSpan("decode")
			defer sp.End()
			h, err = hgio.DecodeBinary(b)
			return err
		})
	} else {
		sp := tr.StartSpan("decode")
		h, err = hgio.ReadText(body)
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	if h.N() > maxInstanceN {
		return nil, fmt.Errorf("instance declares %d vertices, limit %d", h.N(), maxInstanceN)
	}
	return h, nil
}

func parseSolveOptions(r *http.Request) (hypermis.Options, error) {
	var opts hypermis.Options
	q := r.URL.Query()
	algo, err := hypermis.ParseAlgorithm(q.Get("algo"))
	if err != nil {
		return opts, err
	}
	opts.Algorithm = algo
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad seed %q", v)
		}
		opts.Seed = seed
	}
	if v := q.Get("alpha"); v != "" {
		alpha, err := strconv.ParseFloat(v, 64)
		if err != nil || alpha < 0 || alpha >= 1 {
			return opts, fmt.Errorf("bad alpha %q (want [0,1))", v)
		}
		opts.Alpha = alpha
	}
	opts.UseGreedyTail = q.Get("greedytail") == "1" || q.Get("greedytail") == "true"
	opts.CollectCost = q.Get("cost") == "1" || q.Get("cost") == "true"
	opts.Trace = q.Get("trace") == "1" || q.Get("trace") == "true"
	if v := q.Get("par"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 || p > maxParRequest {
			return opts, fmt.Errorf("bad par %q (want 0..%d)", v, maxParRequest)
		}
		// The requested degree; the scheduler caps it by
		// MaxJobParallelism and the free-token count at grant time.
		opts.Parallelism = p
	}
	return opts, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.handleWork(w, r, WorkSolve)
}

// SolveResponseFor builds the wire response for one completed solve —
// shared by the solve, batch and async-job paths (and the `hypermis
// batch` CLI's local mode) so they all report identical shapes.
func SolveResponseFor(h *hypermis.Hypergraph, res *hypermis.Result, cached bool, elapsed time.Duration) *SolveResponse {
	mis := make([]int, 0, res.Size)
	for v, in := range res.MIS {
		if in {
			mis = append(mis, v)
		}
	}
	return &SolveResponse{
		Algorithm: res.Algorithm.String(),
		N:         h.N(),
		M:         h.M(),
		Size:      res.Size,
		Rounds:    res.Rounds,
		Cached:    cached,
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
		Depth:     res.Depth,
		Work:      res.Work,
		Trace:     res.Trace,
		MIS:       mis,
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	h, err := readInstanceBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading instance: %v", err)
		return
	}
	misParam := r.URL.Query().Get("mis")
	mask := make([]bool, h.N())
	size := 0
	if misParam != "" {
		for _, f := range strings.Split(misParam, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 0 || v >= h.N() {
				httpError(w, http.StatusBadRequest, "bad mis vertex %q", f)
				return
			}
			if !mask[v] {
				mask[v] = true
				size++
			}
		}
	}
	s.metrics.Verifies.Add(1)
	if err := hypermis.VerifyMIS(h, mask); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, VerifyResponse{OK: false, Size: size, Violation: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, VerifyResponse{OK: true, Size: size})
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	getInt := func(name string, def int) (int, error) {
		v := q.Get(name)
		if v == "" {
			return def, nil
		}
		i, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("bad %s %q", name, v)
		}
		return i, nil
	}
	var parseErr error
	geti := func(name string, def int) int {
		i, err := getInt(name, def)
		if err != nil && parseErr == nil {
			parseErr = err
		}
		return i
	}
	n := geti("n", 1000)
	m := geti("m", 2000)
	d := geti("d", 3)
	minS := geti("min", 2)
	maxS := geti("max", 6)
	if parseErr != nil {
		httpError(w, http.StatusBadRequest, "%v", parseErr)
		return
	}
	// Resource policy for the inline (unqueued) generate path: bound the
	// instance size and, because generation cost is ~m × edge size (m²
	// for linear's pairwise rejection), the total work a single request
	// can demand. The library itself allows more — these caps are the
	// serving layer's, mirroring maxInstanceN on the ingest side.
	const (
		maxGenEdgeSize = 64
		maxGenWork     = 1 << 26
		maxGenLinearM  = 1 << 10
	)
	kind := q.Get("kind")
	if n <= 0 || m < 0 || n > maxInstanceN || m > maxInstanceN {
		httpError(w, http.StatusBadRequest, "n, m must be in (0, %d]", maxInstanceN)
		return
	}
	if d > maxGenEdgeSize || maxS > maxGenEdgeSize {
		httpError(w, http.StatusBadRequest, "edge sizes are capped at %d", maxGenEdgeSize)
		return
	}
	if widest := max(d, maxS, 2); m*widest > maxGenWork {
		httpError(w, http.StatusBadRequest, "m × edge size exceeds the work cap %d", maxGenWork)
		return
	}
	if kind == "linear" && m > maxGenLinearM {
		httpError(w, http.StatusBadRequest, "linear generation is capped at m <= %d", maxGenLinearM)
		return
	}
	var seed uint64 = 1
	if v := q.Get("seed"); v != "" {
		var err error
		if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
	}
	h, err := hypermis.Generate(hypermis.GenerateSpec{
		Kind: kind, Seed: seed, N: n, M: m, D: d, MinSize: minS, MaxSize: maxS,
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.Generates.Add(1)

	var buf bytes.Buffer
	binary := q.Get("format") == "bin" || wantsBinary(r.Header.Get("Accept"))
	if binary {
		err = hgio.WriteBinary(&buf, h)
	} else {
		err = hgio.WriteText(&buf, h)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding: %v", err)
		return
	}
	if binary {
		w.Header().Set("Content-Type", ContentTypeBinary)
	} else {
		w.Header().Set("Content-Type", ContentTypeText)
	}
	w.Header().Set("X-Instance-Digest", hgio.Digest(h))
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
