package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	hypermis "repro"
	"repro/internal/service"
)

// plantingServer serves the real service, except that it answers the
// requests whose 1-based arrival numbers are in plant503 with a 503 and
// those in plantBad with a valid-looking but non-maximal MIS.
func plantingServer(t *testing.T, plant503, plantBad map[int64]bool) *httptest.Server {
	t.Helper()
	srv := service.New(service.Config{})
	t.Cleanup(srv.Close)
	real := service.NewHandler(srv)
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		if plant503[i] {
			http.Error(w, "queue full", http.StatusServiceUnavailable)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if plantBad[i] {
			var resp service.SolveResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Errorf("planting: %v", err)
				return
			}
			resp.MIS = resp.MIS[:len(resp.MIS)-1] // no longer maximal
			resp.Size--
			body, _ = json.Marshal(resp)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// measureAgainst runs solve-small's closed loop against ts for a short
// window and returns the end-to-end metrics and the run's result.
func measureAgainst(t *testing.T, ts *httptest.Server) (map[string]float64, *result) {
	t.Helper()
	w, err := newWorkload("solve-small", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.clients = 1
	r := newRunner(w, ts.URL)
	defer r.close()
	s := &session{setups: []time.Duration{time.Millisecond}}
	s.win = r.run(context.Background(), []func() request{w.stream(0)}, 400*time.Millisecond)
	s.measure = s.win.tally
	if s.win.tally.Attempted < 8 {
		t.Fatalf("only %d requests in the window", s.win.tally.Attempted)
	}
	return s.endToEndMetrics(), newResult(s.total(), s.endToEndMetrics(), endToEnd)
}

func TestAccountingCleanRun(t *testing.T) {
	m, res := measureAgainst(t, plantingServer(t, nil, nil))
	if m["success_rate"] != 1 || res.Failed != 0 || !res.Correct {
		t.Fatalf("clean run: success_rate %v, failed %d, correct %t", m["success_rate"], res.Failed, res.Correct)
	}
}

func TestAccountingPlanted503RaisesErrorRate(t *testing.T) {
	m, res := measureAgainst(t, plantingServer(t, map[int64]bool{3: true}, nil))
	if m["success_rate"] >= 1 || res.Failed != 1 {
		t.Fatalf("planted 503: success_rate %v, failed %d", m["success_rate"], res.Failed)
	}
	if !res.Correct {
		t.Fatal("a shed request is a failure, not a wrong answer")
	}
}

func TestAccountingPlantedBadAnswerRaisesErrorRate(t *testing.T) {
	m, res := measureAgainst(t, plantingServer(t, nil, map[int64]bool{5: true}))
	if m["success_rate"] >= 1 || res.Failed != 1 || res.Correct {
		t.Fatalf("planted bad answer: success_rate %v, failed %d, correct %t", m["success_rate"], res.Failed, res.Correct)
	}
}

// A cache tier that serves a different, even valid, answer for a key it
// served before must be caught by the fingerprint cross-check.
func TestFingerprintCatchesSwappedAnswer(t *testing.T) {
	w, err := newWorkload("cache-restart", 1)
	if err != nil {
		t.Fatal(err)
	}
	req := rankRequest(w.seed, 5)
	req.kind = service.WorkSolve
	h := w.insts[req.inst].h
	body := func(seed uint64) []byte {
		res, err := hypermis.Solve(h, hypermis.Options{Algorithm: hypermis.AlgLuby, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(service.SolveResponseFor(h, res, false, 0))
		return b
	}
	if err := w.check(req, body(req.seed)); err != nil {
		t.Fatalf("first answer: %v", err)
	}
	if err := w.check(req, body(req.seed)); err != nil {
		t.Fatalf("same answer again: %v", err)
	}
	if err := w.check(req, body(req.seed+1)); err == nil {
		t.Fatal("a different MIS for a repeated key passed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "b", Start: 15, End: 25},
		{ID: 4, Parent: 2, Name: "b", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 110},
	}
	want := []time.Duration{60, 15, 10, 10, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self %d, want %d", spans[i].ID, got, want[i])
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this
// program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, program has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q, program has %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Fatalf("%d metrics listed, program prints %d", len(c.listed), len(c.defs))
		}
		for i, d := range c.defs {
			if c.listed[i].Name != d.name || c.listed[i].Unit != d.unit {
				t.Errorf("metric %d: %s %s, program prints %s %s", i, c.listed[i].Name, c.listed[i].Unit, d.name, d.unit)
			}
		}
	}
}
