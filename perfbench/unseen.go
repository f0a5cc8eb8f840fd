package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// spec is the part of BENCHMARK.json the unseen-seed check reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// unseenSeed is the second workload seed of the unseen-seed check, and
// unseenRuns the runs per workload and seed.
const (
	unseenSeed = 1000003
	unseenRuns = 3
)

// unseenCheck runs every workload unseenRuns times on seed a and as
// often on unseenSeed, alternating which goes first, and checks that
// each end-to-end median on unseenSeed is within BENCHMARK.json's bound
// of the one on a. It returns the process exit code.
func unseenCheck(ctx context.Context, daemonBin, workdir string, a uint64, seconds int) int {
	const b = unseenSeed
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	pass := true
	for _, name := range workloadNames {
		vals := map[uint64]map[string][]float64{a: {}, b: {}}
		for i := range unseenRuns {
			order := []uint64{a, b}
			if i%2 == 1 {
				order = []uint64{b, a}
			}
			for _, seed := range order {
				res, err := runChild(ctx, self, daemonBin, workdir, name, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", name, seed, err)
					return 1
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Printf("%s seed %d: %d of %d requests failed, correct=%t\n", name, seed, res.Failed, res.Attempted, res.Correct)
					pass = false
				}
				for k, v := range res.Metrics {
					vals[seed][k] = append(vals[seed][k], v.Value)
				}
			}
		}
		fmt.Printf("%s: medians of %d runs, seed %d vs unseen seed %d\n", name, unseenRuns, a, b)
		for _, m := range sp.EndToEnd {
			ma, mb := median(vals[a][m.Name]), median(vals[b][m.Name])
			rel := (mb - ma) / ma
			ok := math.Abs(rel) <= m.Bound
			pass = pass && ok
			verdict := "ok"
			if !ok {
				verdict = "OUT OF BOUND"
			}
			fmt.Printf("  %-16s %12.5g %12.5g %+7.2f%% (bound ±%.0f%%) %s\n", m.Name, ma, mb, 100*rel, 100*m.Bound, verdict)
		}
	}
	if !pass {
		return 1
	}
	return 0
}

// runChild runs one untraced benchmark run in a child process and
// parses the result on its last output line.
func runChild(ctx context.Context, self, daemonBin, workdir, name string, seed uint64, seconds int) (*result, error) {
	cmd := exec.CommandContext(ctx, self, "--daemon", daemonBin, "--workdir", workdir, "--workload", name,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
