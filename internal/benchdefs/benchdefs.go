// Package benchdefs declares the solver micro-benchmark workloads in
// one place, shared by the root bench_test.go and cmd/benchjson, so the
// tracked BENCH_solvers.json always measures exactly the corpus that
// `go test -bench Solve` runs.
//
// Five measured bodies share each workload: RunCase (fresh buffers
// per solve — the historical baseline), RunCaseWs (one reused
// hypermis.Workspace — the steady state a pooled service job reaches),
// RunServiceSolve (the full uncached service job path: queue,
// scheduler grant, pooled workspace, observer), and the HTTP pair
// RunServiceHTTPSolve / RunServiceHTTPBatch (the daemon round trip per
// solve, one request per solve versus NDJSON /v1/batch requests of
// HTTPBatchSize items). RunServiceHTTPColor and
// RunServiceHTTPTransversal measure the sibling workload endpoints the
// same way — one uncached POST round trip per iteration. RunDecode
// measures the decode rung below them: binary body to hypergraph plus
// its digest.
package benchdefs

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"testing"

	hypermis "repro"
	"repro/internal/hgio"
	"repro/internal/service"
)

// Case is one solver micro-benchmark: the Benchmark function's name
// suffix, the algorithm, and the instance constructor (deterministic
// seed — every call builds the identical instance).
type Case struct {
	Name string
	Algo hypermis.Algorithm
	New  func() *hypermis.Hypergraph
	// Tracked cases are emitted into BENCH_solvers.json by
	// cmd/benchjson; the large scale cases are benchmark-only.
	Tracked bool
}

// Solver returns the solver benchmark corpus.
func Solver() []Case {
	return []Case{
		{"SolveSBL_n1000", hypermis.AlgSBL,
			func() *hypermis.Hypergraph { return hypermis.RandomMixed(1, 1000, 2000, 2, 12) }, true},
		{"SolveBL_n1000_d3", hypermis.AlgBL,
			func() *hypermis.Hypergraph { return hypermis.RandomUniform(2, 1000, 2000, 3) }, true},
		{"SolveKUW_n1000", hypermis.AlgKUW,
			func() *hypermis.Hypergraph { return hypermis.RandomMixed(3, 1000, 2000, 2, 12) }, true},
		{"SolveLuby_n1000", hypermis.AlgLuby,
			func() *hypermis.Hypergraph { return hypermis.RandomGraph(4, 1000, 3000) }, true},
		{"SolveGreedy_n1000", hypermis.AlgGreedy,
			func() *hypermis.Hypergraph { return hypermis.RandomMixed(5, 1000, 2000, 2, 12) }, true},
		// Scale cases: n=50k/m=100k, above the sharded-scan thresholds.
		{"SolveSBL_n50000", hypermis.AlgSBL,
			func() *hypermis.Hypergraph { return hypermis.RandomMixed(7, 50000, 100000, 2, 12) }, false},
		{"SolveGreedy_n50000", hypermis.AlgGreedy,
			func() *hypermis.Hypergraph { return hypermis.RandomMixed(8, 50000, 100000, 2, 12) }, false},
		{"SolveLuby_n50000", hypermis.AlgLuby,
			func() *hypermis.Hypergraph { return hypermis.RandomGraph(9, 50000, 100000) }, false},
	}
}

// Find returns the case with the given name.
func Find(name string) (Case, bool) {
	for _, c := range Solver() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// DecodeCase is one decode-rung benchmark: the Benchmark function's
// name suffix and the instance whose binary body is decoded.
type DecodeCase struct {
	Name string
	New  func() *hypermis.Hypergraph
}

// Decode returns the decode-rung corpus: the n=1000 graph the Luby rows
// solve, and a heavy mixed instance shaped like large-solve traffic.
func Decode() []DecodeCase {
	return []DecodeCase{
		{"DecodeBinary_n1000", func() *hypermis.Hypergraph { return hypermis.RandomGraph(4, 1000, 3000) }},
		{"DecodeBinary_Heavy", func() *hypermis.Hypergraph { return hypermis.RandomMixed(10, 20000, 40000, 2, 12) }},
	}
}

// RunDecode measures what a request pays to turn a binary body into a
// cache key's ingredients: hgio.ReadBinary plus hgio.Digest.
func RunDecode(b *testing.B, c DecodeCase) {
	var buf bytes.Buffer
	if err := hgio.WriteBinary(&buf, c.New()); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	rd := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		h, err := hgio.ReadBinary(rd)
		if err != nil {
			b.Fatal(err)
		}
		if len(hgio.Digest(h)) != 64 {
			b.Fatal("malformed digest")
		}
	}
}

// VerifyInstance returns the VerifyMIS benchmark workload: a mixed
// instance with a greedy-computed MIS mask.
func VerifyInstance() (*hypermis.Hypergraph, []bool, error) {
	h := hypermis.RandomMixed(6, 10000, 20000, 2, 6)
	res, err := hypermis.Solve(h, hypermis.Options{Algorithm: hypermis.AlgGreedy})
	if err != nil {
		return nil, nil, err
	}
	return h, res.MIS, nil
}

// RunCase is the measured benchmark body for a solver case — the one
// loop both `go test -bench Solve` and cmd/benchjson time, so the
// tracked numbers cannot drift from the test benchmarks.
func RunCase(b *testing.B, c Case) {
	h := c.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hypermis.Solve(h, hypermis.Options{Algorithm: c.Algo, Seed: uint64(i), Alpha: 0.3})
		if err != nil {
			b.Fatal(err)
		}
		if res.Size == 0 && h.N() > 0 {
			b.Fatal("empty MIS")
		}
	}
}

// RunCaseWs is RunCase solving through one reused Workspace — the
// steady-state allocation profile of a pooled service job. The delta
// against RunCase is exactly what workspace pooling saves.
func RunCaseWs(b *testing.B, c Case) {
	h := c.New()
	ws := hypermis.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hypermis.Solve(h, hypermis.Options{
			Algorithm: c.Algo, Seed: uint64(i), Alpha: 0.3, Workspace: ws,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Size == 0 && h.N() > 0 {
			b.Fatal("empty MIS")
		}
	}
}

// RunServiceSolve is the measured body of the service-level benchmark:
// every iteration is one uncached solve job through the scheduler
// (cache disabled, distinct seeds would miss anyway), so allocs/op is
// the end-to-end cost of a cache-miss request minus HTTP decoding.
func RunServiceSolve(b *testing.B, c Case) {
	h := c.New()
	srv := service.New(service.Config{Workers: 1, CacheSize: -1})
	defer srv.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, cached, err := srv.Solve(ctx, h, hypermis.Options{
			Algorithm: c.Algo, Seed: uint64(i), Alpha: 0.3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if cached {
			b.Fatal("unexpected cache hit with caching disabled")
		}
		if res.Size == 0 && h.N() > 0 {
			b.Fatal("empty MIS")
		}
	}
}

// HTTPBatchSize is the items-per-request grouping of the HTTP batch
// benchmark — the daemon-side analogue of `hypermisload -mode=batch
// -batch 32`.
const HTTPBatchSize = 32

// newHTTPBench builds the shared fixture of the HTTP-path benchmarks:
// an uncached single-worker daemon behind httptest and the case's
// instance in binary form (plus its base64, the batch-item encoding of
// the same bytes). Both paths send the identical instance codec and
// both prebuild their payload template, so every request pays the full
// parse + solve and the single/batch delta is per-request overhead
// (connection handling, HTTP framing, handler dispatch) against
// per-item overhead (JSON framing, base64 decode, fan-out
// bookkeeping).
func newHTTPBench(b *testing.B, c Case, disableTracing bool) (ts *httptest.Server, done func(), bin []byte, b64 string) {
	h := c.New()
	var buf bytes.Buffer
	if err := hgio.WriteBinary(&buf, h); err != nil {
		b.Fatal(err)
	}
	srv := service.New(service.Config{
		Workers: 1, CacheSize: -1, MaxBatchItems: 1 << 20,
		DisableTracing: disableTracing,
	})
	ts = httptest.NewServer(service.NewHandler(srv))
	bin = buf.Bytes()
	return ts, func() { ts.Close(); srv.Close() }, bin, base64.StdEncoding.EncodeToString(bin)
}

// RunServiceHTTPSolve measures the full single-shot serving path: one
// POST /v1/solve round trip per solve, request tracing on (the daemon
// default). Compare against RunServiceHTTPBatch at equal b.N — the
// delta is what batching amortizes away — and against
// RunServiceHTTPSolveNoTrace, whose delta is the tracing overhead the
// observability layer must keep negligible.
func RunServiceHTTPSolve(b *testing.B, c Case) { runServiceHTTPSolve(b, c, false) }

// RunServiceHTTPSolveNoTrace is RunServiceHTTPSolve with tracing and
// the flight recorder disabled — the guard row that keeps the span
// plumbing honest.
func RunServiceHTTPSolveNoTrace(b *testing.B, c Case) { runServiceHTTPSolve(b, c, true) }

func runServiceHTTPSolve(b *testing.B, c Case, disableTracing bool) {
	runServiceHTTPWork(b, c, "/v1/solve", disableTracing)
}

// RunServiceHTTPColor measures the coloring serving path: one POST
// /v1/color round trip per iteration, each running the whole MIS-peeling
// pipeline as one scheduled job (distinct seeds, so nothing caches).
// ns/op is per coloring — expect a multiple of the solve row, roughly
// the instance's peeling number.
func RunServiceHTTPColor(b *testing.B, c Case) {
	runServiceHTTPWork(b, c, "/v1/color", false)
}

// RunServiceHTTPTransversal measures the minimal-transversal serving
// path: one POST /v1/transversal round trip per iteration — one solve
// plus the verified complement, so the delta against the solve row is
// the duality overhead.
func RunServiceHTTPTransversal(b *testing.B, c Case) {
	runServiceHTTPWork(b, c, "/v1/transversal", false)
}

// runServiceHTTPWork is the shared measured body of the synchronous
// HTTP workload benchmarks: one POST round trip to the given endpoint
// per iteration, distinct seeds so every request is a cache miss.
func runServiceHTTPWork(b *testing.B, c Case, path string, disableTracing bool) {
	ts, done, bin, _ := newHTTPBench(b, c, disableTracing)
	defer done()
	client := ts.Client()
	algo := c.Algo.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("%s%s?algo=%s&seed=%d&alpha=0.3", ts.URL, path, algo, i)
		resp, err := client.Post(url, service.ContentTypeBinary, bytes.NewReader(bin))
		if err != nil {
			b.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
	}
}

// RunServiceHTTPBatch measures the batch serving path at the same
// granularity — ns/op is still per solve: b.N items grouped into NDJSON
// POST /v1/batch requests of HTTPBatchSize. Tracing is on, as in the
// daemon default; RunServiceHTTPBatchNoTrace is the disabled baseline.
func RunServiceHTTPBatch(b *testing.B, c Case) { runServiceHTTPBatch(b, c, false) }

// RunServiceHTTPBatchNoTrace is RunServiceHTTPBatch without tracing —
// paired with it, the two rows bound the per-item observability cost.
func RunServiceHTTPBatchNoTrace(b *testing.B, c Case) { runServiceHTTPBatch(b, c, true) }

func runServiceHTTPBatch(b *testing.B, c Case, disableTracing bool) {
	ts, done, _, b64 := newHTTPBench(b, c, disableTracing)
	defer done()
	client := ts.Client()
	algo := c.Algo.String()
	// The first item of each request carries the instance (base64 never
	// needs JSON escaping, so the line is assembled directly); the rest
	// ref it, which is how a batch client amortizes both transfer and
	// server-side parsing across the items.
	firstPrefix := `{"id":"h","algo":"` + algo + `","alpha":0.3,"instance_b64":"` + b64 + `","seed":`
	refPrefix := `{"ref":"h","algo":"` + algo + `","alpha":0.3,"seed":`
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		k := HTTPBatchSize
		if rest := b.N - sent; k > rest {
			k = rest
		}
		var body bytes.Buffer
		body.Grow(len(firstPrefix) + k*(len(refPrefix)+16))
		for j := 0; j < k; j++ {
			if j == 0 {
				body.WriteString(firstPrefix)
			} else {
				body.WriteString(refPrefix)
			}
			body.WriteString(strconv.Itoa(sent + j))
			body.WriteString("}\n")
		}
		resp, err := client.Post(ts.URL+"/v1/batch", service.ContentTypeNDJSON, &body)
		if err != nil {
			b.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		if lines := bytes.Count(raw, []byte("\n")); lines != k {
			b.Fatalf("batch returned %d result lines for %d items: %s", lines, k, raw[:min(len(raw), 400)])
		}
		sent += k
	}
}

// RunVerify is the measured body of the VerifyMIS benchmark.
func RunVerify(b *testing.B) {
	h, mis, err := VerifyInstance()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hypermis.VerifyMIS(h, mis); err != nil {
			b.Fatal(err)
		}
	}
}
