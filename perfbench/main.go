// Command perfbench is the repository's end-to-end benchmark. It boots
// cmd/hypermisd built from the same checkout, drives it from one client
// process in a closed loop over one of three workloads, verifies every
// answer, and prints the workload's metrics by name and unit. With
// --trace 1 it prints the per-layer metrics instead, measured by timing
// calls into each module's public functions and by reading the
// daemon's /v1/stats and pprof heap profile around the measured window.
// README.md lists the workloads, the metrics and which layer metric
// should move which end-to-end metric.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload solve-small --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --unseen-check --seconds 25
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/service"
)

// warmup runs before every measured window, so pools, workspaces and
// the parallel-grain tuner are warm and the heap has reached its
// steady size.
const warmup = 3 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// env is where one benchmark run works.
type env struct {
	daemonBin string
	dir       string // this workload's scratch directory
	seconds   time.Duration
}

// result is what a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: solve-small, solve-heavy or cache-restart")
	seed := fs.Uint64("seed", 1, "workload seed: instances and request streams derive from it")
	seconds := fs.Int("seconds", 25, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	daemonBin := fs.String("daemon", "", "the hypermisd binary to benchmark")
	workdir := fs.String("workdir", ".bench_build", "directory for fixtures, logs and traces")
	unseen := fs.Bool("unseen-check", false, "run every workload on --seed and on a second seed and compare the end-to-end medians against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *daemonBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --daemon, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *unseen {
		return unseenCheck(ctx, *daemonBin, *workdir, *seed, *seconds)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w.clients = min(w.clients, runtime.NumCPU())
	e := env{daemonBin: *daemonBin, dir: filepath.Join(*workdir, "run", w.name), seconds: time.Duration(*seconds) * time.Second}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(filepath.Join(e.dir, "caches"))
	defer os.RemoveAll(filepath.Join(e.dir, "fixture"))
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d clients=%d tail=p%g\n",
		w.name, *seed, *seconds, *trace, w.clients, tailPct)
	if w.fixtureRanks > 0 {
		t0 := time.Now()
		if err := writeFixture(ctx, w, filepath.Join(e.dir, "fixture")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: fixture:", err)
			return 1
		}
		fmt.Printf("fixture: %d durable records written in %.2fs (not timed)\n", w.fixtureRanks, time.Since(t0).Seconds())
	}
	var res *result
	if *trace == 0 {
		res, err = e.endToEnd(ctx, w)
	} else {
		res, err = e.traced(ctx, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// session is one booted daemon and what was measured on it.
type session struct {
	phases
	name   string // names the daemon's log and cache directory
	full   bool   // also read /v1/stats and MemStats around the window
	d      *daemon
	r      *runner
	setups []time.Duration
	win    window        // the whole measured window
	cpu    time.Duration // daemon CPU over the window
	parts  []part        // the window's slices
	rss    float64
	before snapshot // only when full
	after  snapshot
}

// part is one slice of a measured window.
type part struct {
	win window
	cpu time.Duration
}

// phases counts one session's requests.
type phases struct{ setup, warmup, measure tally }

func (p *phases) total() tally {
	var t tally
	t.merge(p.setup)
	t.merge(p.warmup)
	t.merge(p.measure)
	return t
}

// snapshot is the daemon's public counters at one instant.
type snapshot struct {
	stats service.Stats
	mem   memStats
}

// boot starts hypermisd for w, on a fresh copy of the durable fixture
// when w has one, and sends req until the daemon listens. The time
// from exec to the first verified answer is appended to s.setups.
func (e *env) boot(ctx context.Context, w *workload, s *session, req request, extra ...string) error {
	if w.fixtureRanks > 0 {
		cache := filepath.Join(e.dir, "caches", s.name)
		if err := copyDir(filepath.Join(e.dir, "fixture"), cache); err != nil {
			return err
		}
		extra = append(extra, "-cachedir", cache)
	}
	d, err := startDaemon(e.daemonBin, filepath.Join(e.dir, s.name+".log"), s.full, extra...)
	if err != nil {
		return err
	}
	r := newRunner(w, d.base)
	v := r.first(ctx, req)
	took := time.Since(d.start)
	s.setup.add(v)
	if v != succeeded {
		r.close()
		_ = d.stop() // the setup failure is the error worth reporting
		return fmt.Errorf("setup request failed: %v (daemon log: %s)", r.firstErr, d.log.Name())
	}
	s.d, s.r = d, r
	s.setups = append(s.setups, took)
	return nil
}

// shutdown drains and stops the session's daemon.
func (s *session) shutdown() error {
	if s.d == nil {
		return nil
	}
	s.r.close()
	err := s.d.stop()
	s.d = nil
	if s.r.firstErr != nil {
		fmt.Println("first failure:", s.r.firstErr)
	}
	return err
}

// measure warms every session's daemon up and then measures them in
// turn, nslices times each, for e.seconds per daemon in total, so slow
// drift of the host's speed affects every daemon alike.
func (e *env) measure(ctx context.Context, ss []*session, nslices int) error {
	streams := make([][]func() request, len(ss))
	for i, s := range ss {
		streams[i] = make([]func() request, s.r.w.clients)
		for c := range streams[i] {
			streams[i][c] = s.r.w.stream(c)
		}
		s.warmup.merge(s.r.run(ctx, streams[i], warmup).tally)
		if s.full {
			var err error
			if s.before, err = e.snap(ctx, s); err != nil {
				return err
			}
		}
	}
	for range nslices {
		for i, s := range ss {
			cpu0, err := s.d.cpu()
			if err != nil {
				return err
			}
			win := s.r.run(ctx, streams[i], e.seconds/time.Duration(nslices))
			cpu1, err := s.d.cpu()
			if err != nil {
				return err
			}
			s.cpu += cpu1 - cpu0
			s.parts = append(s.parts, part{win, cpu1 - cpu0})
			s.win.merge(win)
			s.measure.merge(win.tally)
		}
	}
	for _, s := range ss {
		slices.Sort(s.win.lats)
		var err error
		if s.rss, err = s.d.peakRSSMB(); err != nil {
			return err
		}
		if s.full {
			if s.after, err = e.snap(ctx, s); err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}

func (e *env) snap(ctx context.Context, s *session) (snapshot, error) {
	var snap snapshot
	var err error
	if snap.mem, err = s.d.memStats(ctx, s.r.client); err != nil {
		return snap, err
	}
	snap.stats, err = s.d.stats(ctx, s.r.client)
	return snap, err
}

// endToEnd boots the daemon w.boots times for the set-up time and
// measures the window on the middle boot, so the boots sample the host
// before and after the window alike.
func (e *env) endToEnd(ctx context.Context, w *workload) (*result, error) {
	s := &session{name: "daemon"}
	setupReq := w.stream(w.clients)
	for b := range w.boots {
		if err := e.boot(ctx, w, s, setupReq()); err != nil {
			return nil, err
		}
		var err error
		if b == w.boots/2 {
			err = e.measure(ctx, []*session{s}, w.slices)
		}
		if serr := s.shutdown(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	printPhases(&s.phases)
	m := s.endToEndMetrics()
	printSession("end-to-end", w, s, m)
	return newResult(s.total(), m, endToEnd), nil
}

// median is the middle value of xs, or the mean of the middle two.
func median[T ~int64 | ~float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics derives the untraced metrics from one session.
// Throughput, p50 and CPU per request are medians over the window's
// slices, so a burst of interference from outside the benchmark moves
// one slice, not the result. The tail is the whole window's, which has
// at least ten samples beyond it on every workload.
func (s *session) endToEndMetrics() map[string]float64 {
	var tput, p50s, cpus []float64
	for _, p := range s.parts {
		p50, _ := percentile(p.win.lats, 50)
		tput = append(tput, float64(p.win.tally.Succeeded)/p.win.elapsed.Seconds())
		p50s = append(p50s, ms(p50))
		cpus = append(cpus, ms(p.cpu)/float64(max(1, p.win.tally.Attempted)))
	}
	tail, _ := percentile(s.win.lats, tailPct)
	return map[string]float64{
		"setup_s":         median(s.setups).Seconds(),
		"throughput_rps":  median(tput),
		"latency_p50_ms":  median(p50s),
		"latency_tail_ms": ms(tail),
		"cpu_ms_per_req":  median(cpus),
		"peak_rss_mb":     s.rss,
		"success_rate":    float64(s.win.tally.Succeeded) / float64(max(1, s.win.tally.Attempted)),
	}
}

// newResult packages the metrics named in defs with the run's totals.
func newResult(t tally, m map[string]float64, defs []metricDef) *result {
	res := &result{Correct: t.Wrong == 0, Attempted: t.Attempted, Failed: t.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	return res
}

func printPhases(p *phases) {
	fmt.Printf("%-8s %10s %10s %8s %6s %6s\n", "phase", "attempted", "succeeded", "failed", "shed", "wrong")
	for _, ph := range []struct {
		name string
		t    tally
	}{{"setup", p.setup}, {"warmup", p.warmup}, {"measure", p.measure}} {
		fmt.Printf("%-8s %10d %10d %8d %6d %6d\n", ph.name, ph.t.Attempted, ph.t.Succeeded, ph.t.Failed, ph.t.Shed, ph.t.Wrong)
	}
}

// printSession prints a session's end-to-end numbers with the sample
// counts behind each percentile.
func printSession(label string, w *workload, s *session, m map[string]float64) {
	n := len(s.win.lats)
	fmt.Printf("%s: window %.2fs in %d slices, %d samples\n", label, s.win.elapsed.Seconds(), len(s.parts), n)
	fmt.Print("  samples per slice (beyond the tail percentile):")
	for _, p := range s.parts {
		_, beyond := percentile(p.win.lats, tailPct)
		fmt.Printf(" %d (%d)", len(p.win.lats), beyond)
	}
	_, beyond := percentile(s.win.lats, tailPct)
	fmt.Printf("; whole window %d (%d)\n", n, beyond)
	if len(s.setups) > 0 {
		fmt.Printf("  setup_s          %.4f  (median of %d boots:", m["setup_s"], len(s.setups))
		for _, d := range s.setups {
			fmt.Printf(" %.4f", d.Seconds())
		}
		fmt.Println(")")
	}
	fmt.Printf("  throughput_rps   %.2f  (median over slices)\n", m["throughput_rps"])
	fmt.Printf("  latency_p50_ms   %.3f  (median of slice p50s)\n", m["latency_p50_ms"])
	fmt.Printf("  latency_tail_ms  %.3f  (p%g of the whole window)\n", m["latency_tail_ms"], tailPct)
	fmt.Print("  whole window:")
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		d, beyond := percentile(s.win.lats, p)
		fmt.Printf(" p%g %.3fms (%d beyond)", p, ms(d), beyond)
	}
	fmt.Println()
	fmt.Printf("  cpu_ms_per_req   %.4f  (median over slices; daemon user+sys %.2fs over %d requests)\n",
		m["cpu_ms_per_req"], s.cpu.Seconds(), s.win.tally.Attempted)
	fmt.Printf("  peak_rss_mb      %.1f\n", m["peak_rss_mb"])
	fmt.Printf("  success_rate     %.4f  (error_rate %.4f)\n", m["success_rate"], 1-m["success_rate"])
}
