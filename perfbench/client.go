package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// verdict classifies one attempted request.
type verdict int

const (
	succeeded verdict = iota
	failedTransport
	failedStatus
	shed  // a 503: the daemon refused the work
	wrong // a 200 whose answer failed verification
)

// tally counts one phase's requests. Shed and Wrong are subsets of
// Failed.
type tally struct {
	Attempted, Succeeded, Failed, Shed, Wrong int64
}

func (t *tally) add(v verdict) {
	t.Attempted++
	switch v {
	case succeeded:
		t.Succeeded++
		return
	case shed:
		t.Shed++
	case wrong:
		t.Wrong++
	}
	t.Failed++
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Succeeded += o.Succeeded
	t.Failed += o.Failed
	t.Shed += o.Shed
	t.Wrong += o.Wrong
}

// runner sends a workload's requests to one daemon and judges the
// answers.
type runner struct {
	w      *workload
	base   string
	client *http.Client

	mu       sync.Mutex
	firstErr error // the first failure, for the report
}

func newRunner(w *workload, base string) *runner {
	tr := &http.Transport{MaxIdleConnsPerHost: w.clients + 1, DisableCompression: true}
	return &runner{w: w, base: base, client: &http.Client{Transport: tr}}
}

func (r *runner) close() { r.client.CloseIdleConnections() }

func (r *runner) url(req request) string {
	u := r.base + "/v1/" + string(req.kind) + "?algo=" + r.w.algo + "&seed=" + strconv.FormatUint(req.seed, 10)
	if r.w.par > 0 {
		u += "&par=" + strconv.Itoa(r.w.par)
	}
	return u
}

// send posts req's binary instance and returns the status and body.
func (r *runner) send(ctx context.Context, req request) (int, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url(req), bytes.NewReader(r.w.insts[req.inst].body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", service.ContentTypeBinary)
	resp, err := r.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// judge classifies a finished request, verifying every 200.
func (r *runner) judge(req request, status int, body []byte, err error) verdict {
	v := succeeded
	switch {
	case err != nil:
		v = failedTransport
	case status == http.StatusServiceUnavailable:
		v, err = shed, fmt.Errorf("503: %s", bytes.TrimSpace(body))
	case status != http.StatusOK:
		v, err = failedStatus, fmt.Errorf("%d: %s", status, bytes.TrimSpace(body))
	default:
		if err = r.w.check(req, body); err != nil {
			v = wrong
		}
	}
	if err != nil {
		r.mu.Lock()
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s %s: %w", req.kind, r.url(req), err)
		}
		r.mu.Unlock()
	}
	return v
}

// first sends the setup request, retrying while the daemon is not yet
// listening, and returns its verdict.
func (r *runner) first(ctx context.Context, req request) verdict {
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body, err := r.send(ctx, req)
		if errors.Is(err, syscall.ECONNREFUSED) && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		return r.judge(req, status, body, err)
	}
}

// window is one closed-loop phase's outcome.
type window struct {
	tally   tally
	lats    []time.Duration // per request; failures count as +Inf
	elapsed time.Duration
}

func (w *window) merge(o window) {
	w.tally.merge(o.tally)
	w.lats = append(w.lats, o.lats...)
	w.elapsed += o.elapsed
}

// run drives the closed loop for d: each client sends its next request
// as soon as the previous one returns, and stops sending once d has
// passed. run returns after every request it sent has finished.
func (r *runner) run(ctx context.Context, streams []func() request, d time.Duration) window {
	start := time.Now()
	stopAt := start.Add(d)
	parts := make([]window, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[c]
			for ctx.Err() == nil && time.Now().Before(stopAt) {
				req := streams[c]()
				t0 := time.Now()
				status, body, err := r.send(ctx, req)
				lat := time.Since(t0)
				v := r.judge(req, status, body, err)
				p.tally.add(v)
				if v != succeeded {
					lat = math.MaxInt64
				}
				p.lats = append(p.lats, lat)
			}
		}()
	}
	wg.Wait()
	out := window{elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	slices.Sort(out.lats)
	return out
}

// percentile is the nearest-rank p-th percentile of sorted samples and
// the number of samples above it.
func percentile(sorted []time.Duration, p float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i], len(sorted) - 1 - i
}
