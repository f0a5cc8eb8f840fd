// Root benchmark harness: one testing.B benchmark per experiment in
// DESIGN.md §5 (tables T1–T12 and figure series F1–F2). Each benchmark
// drives the same registered experiment the cmd/experiments binary runs
// — in quick mode with one trial, so `go test -bench=.` regenerates a
// smoke version of every table and reports its wall-clock cost. Full
// tables: `go run ./cmd/experiments`.
//
// Additional micro-benchmarks at the bottom measure the solvers
// directly (ns/op and allocs/op per full solve) for the
// throughput-focused reader. Their workloads are declared once in
// internal/benchdefs, shared with cmd/benchjson so the tracked
// BENCH_solvers.json measures the same corpus.
package hypermis_test

import (
	"testing"

	"repro/internal/benchdefs"
	"repro/internal/harness"

	_ "repro/internal/experiments"
)

// benchExperiment runs the registered experiment once per b.N iteration
// and sanity-checks that it yields rows.
func benchExperiment(b *testing.B, id string) {
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := harness.Config{Seed: 1, Trials: 1, Quick: true, Log: nil}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(cfg)
		rows := 0
		for _, t := range tables {
			rows += len(t.Rows)
		}
		if rows == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkT1_SBLDepthScaling(b *testing.B)       { benchExperiment(b, "t1") }
func BenchmarkT2_SBLRounds(b *testing.B)             { benchExperiment(b, "t2") }
func BenchmarkT3_SampledDimension(b *testing.B)      { benchExperiment(b, "t3") }
func BenchmarkT4_BLStages(b *testing.B)              { benchExperiment(b, "t4") }
func BenchmarkT5_SurvivalProbability(b *testing.B)   { benchExperiment(b, "t5") }
func BenchmarkT6_DegreeCollapse(b *testing.B)        { benchExperiment(b, "t6") }
func BenchmarkT7_PotentialTrajectory(b *testing.B)   { benchExperiment(b, "t7") }
func BenchmarkT8_RecurrenceFeasibility(b *testing.B) { benchExperiment(b, "t8") }
func BenchmarkT9_ConcentrationTails(b *testing.B)    { benchExperiment(b, "t9") }
func BenchmarkT10_FailureRate(b *testing.B)          { benchExperiment(b, "t10") }
func BenchmarkT11_WorkBounds(b *testing.B)           { benchExperiment(b, "t11") }
func BenchmarkT12_SpecialClasses(b *testing.B)       { benchExperiment(b, "t12") }
func BenchmarkT13_PermDependencyDepth(b *testing.B)  { benchExperiment(b, "t13") }
func BenchmarkT14_Ablations(b *testing.B)            { benchExperiment(b, "t14") }
func BenchmarkT15_EREWMachineAudit(b *testing.B)     { benchExperiment(b, "t15") }
func BenchmarkF1_DepthCrossover(b *testing.B)        { benchExperiment(b, "f1") }
func BenchmarkF2_EdgeMigration(b *testing.B)         { benchExperiment(b, "f2") }

// --- solver micro-benchmarks ---

// benchSolve runs the named benchdefs case through the shared body.
func benchSolve(b *testing.B, name string) {
	c, ok := benchdefs.Find(name)
	if !ok {
		b.Fatalf("benchdefs case %s not declared", name)
	}
	benchdefs.RunCase(b, c)
}

func BenchmarkSolveSBL_n1000(b *testing.B)    { benchSolve(b, "SolveSBL_n1000") }
func BenchmarkSolveBL_n1000_d3(b *testing.B)  { benchSolve(b, "SolveBL_n1000_d3") }
func BenchmarkSolveKUW_n1000(b *testing.B)    { benchSolve(b, "SolveKUW_n1000") }
func BenchmarkSolveLuby_n1000(b *testing.B)   { benchSolve(b, "SolveLuby_n1000") }
func BenchmarkSolveGreedy_n1000(b *testing.B) { benchSolve(b, "SolveGreedy_n1000") }

// Pooled-workspace variants: the same workloads through one reused
// hypermis.Workspace, i.e. the steady state of a pooled service job.
// Comparing the *_ws allocs/op against the fresh-buffer benchmarks
// above measures what the solver-runtime workspace saves per solve.
func benchSolveWs(b *testing.B, name string) {
	c, ok := benchdefs.Find(name)
	if !ok {
		b.Fatalf("benchdefs case %s not declared", name)
	}
	benchdefs.RunCaseWs(b, c)
}

func BenchmarkSolveSBL_n1000_ws(b *testing.B)    { benchSolveWs(b, "SolveSBL_n1000") }
func BenchmarkSolveBL_n1000_d3_ws(b *testing.B)  { benchSolveWs(b, "SolveBL_n1000_d3") }
func BenchmarkSolveKUW_n1000_ws(b *testing.B)    { benchSolveWs(b, "SolveKUW_n1000") }
func BenchmarkSolveLuby_n1000_ws(b *testing.B)   { benchSolveWs(b, "SolveLuby_n1000") }
func BenchmarkSolveGreedy_n1000_ws(b *testing.B) { benchSolveWs(b, "SolveGreedy_n1000") }

// Service-level benchmark: one uncached solve job end to end (queue,
// parallelism grant, pooled workspace, round observer, no cache).
func benchServiceSolve(b *testing.B, name string) {
	c, ok := benchdefs.Find(name)
	if !ok {
		b.Fatalf("benchdefs case %s not declared", name)
	}
	benchdefs.RunServiceSolve(b, c)
}

func BenchmarkServiceSolveSBL_n1000(b *testing.B)    { benchServiceSolve(b, "SolveSBL_n1000") }
func BenchmarkServiceSolveBL_n1000_d3(b *testing.B)  { benchServiceSolve(b, "SolveBL_n1000_d3") }
func BenchmarkServiceSolveKUW_n1000(b *testing.B)    { benchServiceSolve(b, "SolveKUW_n1000") }
func BenchmarkServiceSolveLuby_n1000(b *testing.B)   { benchServiceSolve(b, "SolveLuby_n1000") }
func BenchmarkServiceSolveGreedy_n1000(b *testing.B) { benchServiceSolve(b, "SolveGreedy_n1000") }

// HTTP-path benchmarks: the same uncached solve through the full
// daemon round trip, one request per solve (Single) versus NDJSON
// /v1/batch requests of benchdefs.HTTPBatchSize items (Batch32).
// ns/op is per solve in both, so the delta is the per-request overhead
// batching amortizes.
func benchServiceHTTP(b *testing.B, name string, batch bool) {
	c, ok := benchdefs.Find(name)
	if !ok {
		b.Fatalf("benchdefs case %s not declared", name)
	}
	if batch {
		benchdefs.RunServiceHTTPBatch(b, c)
	} else {
		benchdefs.RunServiceHTTPSolve(b, c)
	}
}

// NoTrace twins run the same bodies with tracing and the flight
// recorder disabled; paired with the traced rows they bound the
// observability overhead per request/item.
func benchServiceHTTPNoTrace(b *testing.B, name string, batch bool) {
	c, ok := benchdefs.Find(name)
	if !ok {
		b.Fatalf("benchdefs case %s not declared", name)
	}
	if batch {
		benchdefs.RunServiceHTTPBatchNoTrace(b, c)
	} else {
		benchdefs.RunServiceHTTPSolveNoTrace(b, c)
	}
}

func BenchmarkServiceHTTPSingle_Luby_n1000(b *testing.B) {
	benchServiceHTTP(b, "SolveLuby_n1000", false)
}
func BenchmarkServiceHTTPBatch32_Luby_n1000(b *testing.B) {
	benchServiceHTTP(b, "SolveLuby_n1000", true)
}
func BenchmarkServiceHTTPSingle_SBL_n1000(b *testing.B)  { benchServiceHTTP(b, "SolveSBL_n1000", false) }
func BenchmarkServiceHTTPBatch32_SBL_n1000(b *testing.B) { benchServiceHTTP(b, "SolveSBL_n1000", true) }

// Workload-endpoint rows: the same daemon round trip through POST
// /v1/color (the whole peeling pipeline as one scheduled job) and POST
// /v1/transversal (one solve plus the verified complement). ns/op is
// per coloring / per transversal.
func BenchmarkServiceHTTPColor_Luby_n1000(b *testing.B) {
	c, ok := benchdefs.Find("SolveLuby_n1000")
	if !ok {
		b.Fatal("benchdefs case SolveLuby_n1000 not declared")
	}
	benchdefs.RunServiceHTTPColor(b, c)
}
func BenchmarkServiceHTTPTransversal_Luby_n1000(b *testing.B) {
	c, ok := benchdefs.Find("SolveLuby_n1000")
	if !ok {
		b.Fatal("benchdefs case SolveLuby_n1000 not declared")
	}
	benchdefs.RunServiceHTTPTransversal(b, c)
}

func BenchmarkServiceHTTPSingleNoTrace_Luby_n1000(b *testing.B) {
	benchServiceHTTPNoTrace(b, "SolveLuby_n1000", false)
}
func BenchmarkServiceHTTPBatch32NoTrace_Luby_n1000(b *testing.B) {
	benchServiceHTTPNoTrace(b, "SolveLuby_n1000", true)
}
func BenchmarkServiceHTTPSingleNoTrace_SBL_n1000(b *testing.B) {
	benchServiceHTTPNoTrace(b, "SolveSBL_n1000", false)
}
func BenchmarkServiceHTTPBatch32NoTrace_SBL_n1000(b *testing.B) {
	benchServiceHTTPNoTrace(b, "SolveSBL_n1000", true)
}

// Scale benchmarks: n=50k vertices, m=100k edges. At this size the CSR
// edge scans cross the sharding threshold, so these exercise the
// worker-pool paths the n=1000 instances run serially.
func BenchmarkSolveSBL_n50000(b *testing.B)    { benchSolve(b, "SolveSBL_n50000") }
func BenchmarkSolveGreedy_n50000(b *testing.B) { benchSolve(b, "SolveGreedy_n50000") }
func BenchmarkSolveLuby_n50000(b *testing.B)   { benchSolve(b, "SolveLuby_n50000") }

func BenchmarkVerifyMIS_n10000(b *testing.B) { benchdefs.RunVerify(b) }

// Decode rung: binary body → hypergraph plus digest, the per-request
// work in front of the cache lookup.
func benchDecode(b *testing.B, name string) {
	for _, c := range benchdefs.Decode() {
		if c.Name == name {
			benchdefs.RunDecode(b, c)
			return
		}
	}
	b.Fatalf("benchdefs decode case %s not declared", name)
}

func BenchmarkDecodeBinary_n1000(b *testing.B) { benchDecode(b, "DecodeBinary_n1000") }
func BenchmarkDecodeBinary_Heavy(b *testing.B) { benchDecode(b, "DecodeBinary_Heavy") }
