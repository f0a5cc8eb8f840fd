package service

import (
	"context"
	"errors"
	"net/http"
	"time"

	hypermis "repro"
	"repro/internal/admit"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// ColorClassInfo is one color class in a ColorResponse: the class's
// size plus the telemetry of the MIS solve that carved it out of the
// residual hypergraph (n and m are the residual's shape when the class
// was solved). Trace is present only on ?trace=1 requests.
type ColorClassInfo struct {
	Size   int                   `json:"size"`
	N      int                   `json:"n"`
	M      int                   `json:"m"`
	Rounds int                   `json:"rounds"`
	Trace  []hypermis.RoundTrace `json:"trace,omitempty"`
}

// ColorResponse is the JSON body of POST /v1/color. Colors assigns
// every vertex its class index in [0, NumColors); Classes carries the
// per-class peeling telemetry in class order.
type ColorResponse struct {
	Algorithm  string           `json:"algorithm"`
	N          int              `json:"n"`
	M          int              `json:"m"`
	NumColors  int              `json:"num_colors"`
	ClassSizes []int            `json:"class_sizes"`
	Rounds     int              `json:"rounds"`
	Cached     bool             `json:"cached"`
	ElapsedMs  float64          `json:"elapsed_ms"`
	Classes    []ColorClassInfo `json:"classes"`
	Colors     []int            `json:"colors"`
}

// TransversalResponse is the JSON body of POST /v1/transversal.
// Transversal lists the member vertices in ascending order; MISSize is
// the size of the complementary maximal independent set, so
// Size + MISSize == N always.
type TransversalResponse struct {
	Algorithm   string                `json:"algorithm"`
	N           int                   `json:"n"`
	M           int                   `json:"m"`
	Size        int                   `json:"size"`
	MISSize     int                   `json:"mis_size"`
	Rounds      int                   `json:"rounds"`
	Cached      bool                  `json:"cached"`
	ElapsedMs   float64               `json:"elapsed_ms"`
	Depth       int64                 `json:"depth,omitempty"`
	Work        int64                 `json:"work,omitempty"`
	Trace       []hypermis.RoundTrace `json:"trace,omitempty"`
	Transversal []int                 `json:"transversal"`
}

// ColorResponseFor builds the wire response for one completed coloring
// — shared by the color, batch and async-job paths (and the CLI's
// local mode) so they all report identical shapes.
func ColorResponseFor(h *hypermis.Hypergraph, res *hypermis.ColorResult, cached bool, elapsed time.Duration) *ColorResponse {
	classes := make([]ColorClassInfo, len(res.Classes))
	for i, c := range res.Classes {
		classes[i] = ColorClassInfo{Size: c.Size, N: c.N, M: c.M, Rounds: c.Rounds, Trace: c.Trace}
	}
	return &ColorResponse{
		Algorithm:  res.Algorithm.String(),
		N:          h.N(),
		M:          h.M(),
		NumColors:  res.NumColors,
		ClassSizes: append([]int(nil), res.ClassSizes...),
		Rounds:     res.Rounds,
		Cached:     cached,
		ElapsedMs:  float64(elapsed) / float64(time.Millisecond),
		Classes:    classes,
		Colors:     res.Colors,
	}
}

// TransversalResponseFor builds the wire response for one completed
// minimal-transversal computation — shared across the synchronous,
// batch and async-job paths like SolveResponseFor.
func TransversalResponseFor(h *hypermis.Hypergraph, res *hypermis.TransversalResult, cached bool, elapsed time.Duration) *TransversalResponse {
	members := make([]int, 0, res.Size)
	for v, in := range res.Transversal {
		if in {
			members = append(members, v)
		}
	}
	return &TransversalResponse{
		Algorithm:   res.Algorithm.String(),
		N:           h.N(),
		M:           h.M(),
		Size:        res.Size,
		MISSize:     res.MISSize,
		Rounds:      res.Rounds,
		Cached:      cached,
		ElapsedMs:   float64(elapsed) / float64(time.Millisecond),
		Depth:       res.Depth,
		Work:        res.Work,
		Trace:       res.Trace,
		Transversal: members,
	}
}

// writeWorkError maps a failed workload to its HTTP status and body —
// the one overload/fault contract shared by the solve, color and
// transversal endpoints (see handleSolve's original inline switch for
// the rationale on each arm). err must be non-nil.
func (s *Server) writeWorkError(w http.ResponseWriter, r *http.Request, kind WorkKind, prio admit.Priority, err error) {
	var admission *AdmissionError
	switch {
	case errors.As(err, &admission):
		// Deadline-aware shed: the queue-wait estimate says the client's
		// deadline cannot be met, so the Retry-After is that estimate —
		// the soonest moment a retry could plausibly succeed.
		w.Header().Set("Retry-After", retryAfterSeconds(admission.EstWait))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds(s.estimatedRetryAfter(prio)))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrDraining):
		// The process is going away; point retries at a restarted
		// instance, not this one.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, faultinject.ErrInjected):
		// A chaos-injected solver failure is a server fault by
		// construction; clients must see the 5xx a real one would cause.
		httpError(w, http.StatusInternalServerError, "%s: %v", kind, err)
	case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
		// The client's own context is still live, so the expiry was a
		// server-side deadline (the per-job one, or the request's
		// deadline_ms budget): a retryable condition, not a malformed
		// request.
		httpError(w, http.StatusGatewayTimeout, "%s: %v (deadline)", kind, err)
	default:
		// Dimension violations and client-driven cancellation are the
		// client's fault or choice; unprocessable rather than 500.
		httpError(w, http.StatusUnprocessableEntity, "%s: %v", kind, err)
	}
}

// handleWork is the one synchronous workload handler behind POST
// /v1/solve, /v1/color and /v1/transversal: same option parsing, same
// admission and rate-limit policy, same error contract — only the
// computation dispatched and the response shape differ by kind.
func (s *Server) handleWork(w http.ResponseWriter, r *http.Request, kind WorkKind) {
	if !s.allowClient(w, r) {
		return
	}
	tr := obs.From(r.Context())
	opts, err := parseSolveOptions(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	prio, err := requestPriority(r, admit.Interactive)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancelDeadline, err := requestDeadline(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancelDeadline()
	h, err := readInstanceBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading instance: %v", err)
		return
	}
	start := time.Now()
	res, cached, err := s.workKeyed(ctx, kind, h, opts, WorkKey(kind, h, opts), prio, true)
	if err != nil {
		s.writeWorkError(w, r, kind, prio, err)
		return
	}
	elapsed := time.Since(start)
	sp := tr.StartSpan("encode")
	defer sp.End()
	switch kind {
	case WorkColor:
		cr := res.(*hypermis.ColorResult)
		tr.SetDetail("algo=%s n=%d m=%d colors=%d cached=%t", cr.Algorithm, h.N(), h.M(), cr.NumColors, cached)
		writeJSON(w, http.StatusOK, *ColorResponseFor(h, cr, cached, elapsed))
	case WorkTransversal:
		tv := res.(*hypermis.TransversalResult)
		tr.SetDetail("algo=%s n=%d m=%d size=%d cached=%t", tv.Algorithm, h.N(), h.M(), tv.Size, cached)
		writeJSON(w, http.StatusOK, *TransversalResponseFor(h, tv, cached, elapsed))
	default:
		sr := res.(*hypermis.Result)
		tr.SetDetail("algo=%s n=%d m=%d size=%d cached=%t", sr.Algorithm, h.N(), h.M(), sr.Size, cached)
		writeJSON(w, http.StatusOK, *SolveResponseFor(h, sr, cached, elapsed))
	}
}

func (s *Server) handleColor(w http.ResponseWriter, r *http.Request) {
	s.handleWork(w, r, WorkColor)
}

func (s *Server) handleTransversal(w http.ResponseWriter, r *http.Request) {
	s.handleWork(w, r, WorkTransversal)
}
