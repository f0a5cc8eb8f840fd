// Command benchjson runs the solver micro-benchmarks programmatically
// (via testing.Benchmark, no `go test` subprocess) and emits the
// results as JSON, one record per benchmark with ns/op, B/op and
// allocs/op. It exists so the perf trajectory of the solvers is a
// machine-readable artifact: the repository tracks its output as
// BENCH_solvers.json.
//
// Each benchmark is measured across a GOMAXPROCS sweep (default
// 1/2/4/NumCPU, deduplicated) and the record carries the per-procs
// timings plus a parallel_speedup field: ns/op at GOMAXPROCS=1 divided
// by ns/op at the sweep's widest setting. The top-level legacy fields
// (ns_per_op etc.) are the GOMAXPROCS=1 numbers, so the single-core
// trajectory stays comparable across revisions.
//
// Speedup numbers are only honest when the host actually has the cores
// the sweep asks for. When the widest sweep point exceeds the host's
// CPU count the run is oversubscribed — goroutines time-slice one core
// and the ratio measures scheduler churn, not scaling — so the report
// sets a top-level "oversubscribed": true flag and every
// parallel_speedup is emitted as null rather than a number a reader
// could mistake for real scaling.
//
// The workloads come from internal/benchdefs — the same declarations
// the root bench_test.go runs — so the JSON always corresponds to
// `go test -bench Solve`.
//
// Usage:
//
//	go run ./cmd/benchjson                     # writes BENCH_solvers.json
//	go run ./cmd/benchjson -out -              # writes to stdout
//	go run ./cmd/benchjson -procs 1,8 -out -   # custom sweep
//	go run ./cmd/benchjson -benchtime 1x -out -  # CI smoke (one iteration per case)
//	go run ./cmd/benchjson -match 'HTTPColor'  # refresh only matching rows in place
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchdefs"
)

// procRecord is one benchmark × GOMAXPROCS measurement.
type procRecord struct {
	Procs       int     `json:"procs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// record is one benchmark result row. The top-level numbers are the
// GOMAXPROCS=1 measurement; Sweep holds every point and
// ParallelSpeedup is ns/op(1) / ns/op(widest) — or null when the sweep
// oversubscribed the host (see the package comment).
type record struct {
	Name            string       `json:"name"`
	Iterations      int          `json:"iterations"`
	NsPerOp         float64      `json:"ns_per_op"`
	BytesPerOp      int64        `json:"bytes_per_op"`
	AllocsPerOp     int64        `json:"allocs_per_op"`
	Sweep           []procRecord `json:"procs_sweep"`
	ParallelSpeedup *float64     `json:"parallel_speedup"`
}

// report is the emitted document.
type report struct {
	Tool       string `json:"tool"`
	GoVersion  string `json:"go_version"`
	HostCPUs   int    `json:"host_cpus"`
	ProcsSweep []int  `json:"procs_sweep"`
	// Oversubscribed is true when the widest sweep point exceeds
	// HostCPUs; every parallel_speedup is null in that case.
	Oversubscribed bool     `json:"oversubscribed,omitempty"`
	Benchmarks     []record `json:"benchmarks"`
}

// parseProcs parses "1,2,4" into a sorted, deduplicated, positive list.
func parseProcs(s string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad procs entry %q", f)
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Ints(out)
	if len(out) == 0 {
		return nil, fmt.Errorf("empty procs list")
	}
	return out, nil
}

func defaultProcs() string {
	procs := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	var parts []string
	sort.Ints(procs)
	for _, p := range procs {
		if !seen[p] {
			seen[p] = true
			parts = append(parts, strconv.Itoa(p))
		}
	}
	return strings.Join(parts, ",")
}

func main() {
	out := flag.String("out", "BENCH_solvers.json", "output path, or - for stdout")
	benchtime := flag.String("benchtime", "", "per-benchmark budget forwarded to testing (e.g. 100ms or 5x); default 1s")
	procsFlag := flag.String("procs", defaultProcs(), "comma-separated GOMAXPROCS sweep")
	match := flag.String("match", "", "regexp selecting which benchmarks to run; with an existing -out file, unmatched rows are carried over unchanged (selective refresh)")
	testing.Init()
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	type namedBench struct {
		name string
		fn   func(b *testing.B)
	}
	var benches []namedBench
	for _, c := range benchdefs.Solver() {
		if !c.Tracked {
			continue
		}
		benches = append(benches, namedBench{"Benchmark" + c.Name, func(b *testing.B) {
			benchdefs.RunCase(b, c)
		}})
	}
	// Pooled-workspace and service-level variants of the tracked cases:
	// the _ws rows measure the steady-state allocs of a reused
	// hypermis.Workspace, the Service rows the full uncached job path
	// through the scheduler's workspace pool.
	for _, c := range benchdefs.Solver() {
		if !c.Tracked {
			continue
		}
		benches = append(benches, namedBench{"Benchmark" + c.Name + "_ws", func(b *testing.B) {
			benchdefs.RunCaseWs(b, c)
		}})
	}
	for _, c := range benchdefs.Solver() {
		if !c.Tracked {
			continue
		}
		benches = append(benches, namedBench{"BenchmarkService" + c.Name, func(b *testing.B) {
			benchdefs.RunServiceSolve(b, c)
		}})
	}
	// HTTP-path rows: the full daemon round trip per solve, single-shot
	// versus batched — the recorded evidence that /v1/batch sustains
	// more solves/sec than one-request-per-solve at equal concurrency.
	for _, name := range []string{"SolveLuby_n1000", "SolveSBL_n1000"} {
		c, ok := benchdefs.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: missing case %s\n", name)
			os.Exit(1)
		}
		suffix := strings.TrimPrefix(name, "Solve")
		benches = append(benches, namedBench{"BenchmarkServiceHTTPSingle_" + suffix, func(b *testing.B) {
			benchdefs.RunServiceHTTPSolve(b, c)
		}})
		benches = append(benches, namedBench{
			fmt.Sprintf("BenchmarkServiceHTTPBatch%d_%s", benchdefs.HTTPBatchSize, suffix),
			func(b *testing.B) { benchdefs.RunServiceHTTPBatch(b, c) },
		})
		// Tracing-disabled twins: the recorded guard that the span/trace
		// plumbing stays within noise of the untraced request path.
		benches = append(benches, namedBench{"BenchmarkServiceHTTPSingleNoTrace_" + suffix, func(b *testing.B) {
			benchdefs.RunServiceHTTPSolveNoTrace(b, c)
		}})
		benches = append(benches, namedBench{
			fmt.Sprintf("BenchmarkServiceHTTPBatch%dNoTrace_%s", benchdefs.HTTPBatchSize, suffix),
			func(b *testing.B) { benchdefs.RunServiceHTTPBatchNoTrace(b, c) },
		})
	}
	// Workload-endpoint rows: /v1/color runs the whole peeling pipeline
	// per request, /v1/transversal one solve plus the verified
	// complement — the recorded per-request cost of the two non-solve
	// workloads.
	{
		c, ok := benchdefs.Find("SolveLuby_n1000")
		if !ok {
			fmt.Fprintln(os.Stderr, "benchjson: missing case SolveLuby_n1000")
			os.Exit(1)
		}
		benches = append(benches, namedBench{"BenchmarkServiceHTTPColor_Luby_n1000", func(b *testing.B) {
			benchdefs.RunServiceHTTPColor(b, c)
		}})
		benches = append(benches, namedBench{"BenchmarkServiceHTTPTransversal_Luby_n1000", func(b *testing.B) {
			benchdefs.RunServiceHTTPTransversal(b, c)
		}})
	}
	benches = append(benches, namedBench{"BenchmarkVerifyMIS_n10000", benchdefs.RunVerify})
	// Decode rung: the body → hypergraph + digest work every request
	// pays before the cache lookup.
	for _, c := range benchdefs.Decode() {
		benches = append(benches, namedBench{"Benchmark" + c.Name, func(b *testing.B) {
			benchdefs.RunDecode(b, c)
		}})
	}

	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -match:", err)
			os.Exit(1)
		}
		kept := benches[:0]
		for _, bench := range benches {
			if re.MatchString(bench.name) {
				kept = append(kept, bench)
			}
		}
		benches = kept
		if len(benches) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: -match selects no benchmarks")
			os.Exit(1)
		}
	}

	rep := report{
		Tool:       "cmd/benchjson",
		GoVersion:  runtime.Version(),
		HostCPUs:   runtime.NumCPU(),
		ProcsSweep: procs,
		// A sweep wider than the host oversubscribes: the "parallel"
		// points time-slice one core, so a speedup ratio would be
		// meaningless (historically this emitted 0.4–0.9 "speedups" on a
		// 1-CPU host that read like parallelism losing).
		Oversubscribed: procs[len(procs)-1] > runtime.NumCPU(),
	}
	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)
	for _, bench := range benches {
		rec := record{Name: bench.name}
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			r := testing.Benchmark(bench.fn)
			if r.N == 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %s failed at GOMAXPROCS=%d (see log above)\n", bench.name, p)
				os.Exit(1)
			}
			pr := procRecord{
				Procs:       p,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			rec.Sweep = append(rec.Sweep, pr)
			fmt.Fprintf(os.Stderr, "%-28s p=%-3d %10d ns/op %10d B/op %8d allocs/op\n",
				bench.name, p, int64(pr.NsPerOp), pr.BytesPerOp, pr.AllocsPerOp)
		}
		runtime.GOMAXPROCS(origProcs)
		base := rec.Sweep[0] // procs sorted ascending; [0] is the narrowest
		rec.Iterations = base.Iterations
		rec.NsPerOp = base.NsPerOp
		rec.BytesPerOp = base.BytesPerOp
		rec.AllocsPerOp = base.AllocsPerOp
		widest := rec.Sweep[len(rec.Sweep)-1]
		if !rep.Oversubscribed && widest.NsPerOp > 0 {
			speedup := base.NsPerOp / widest.NsPerOp
			rec.ParallelSpeedup = &speedup
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}

	// Selective refresh: under -match against an existing file, carry the
	// unmatched rows over unchanged so one new benchmark can be added to
	// the tracked baseline without re-measuring (and so re-baselining)
	// every other row.
	if *match != "" && *out != "-" {
		if prior, err := os.ReadFile(*out); err == nil {
			var old report
			if err := json.Unmarshal(prior, &old); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: existing %s: %v\n", *out, err)
				os.Exit(1)
			}
			fresh := make(map[string]record, len(rep.Benchmarks))
			for _, r := range rep.Benchmarks {
				fresh[r.Name] = r
			}
			merged := make([]record, 0, len(old.Benchmarks)+len(rep.Benchmarks))
			for _, r := range old.Benchmarks {
				if nr, ok := fresh[r.Name]; ok {
					merged = append(merged, nr)
					delete(fresh, r.Name)
				} else {
					merged = append(merged, r)
				}
			}
			for _, r := range rep.Benchmarks {
				if _, ok := fresh[r.Name]; ok {
					merged = append(merged, r)
				}
			}
			rep.Benchmarks = merged
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
