package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"

	"stash/internal/core"
	"stash/internal/experiments"
)

// suiteSimulated is how many distinct scenarios the full registry
// simulates from an empty cache. A cold pool that simulates fewer has
// inherited results from somewhere.
const suiteSimulated = 511

// warmPasses is how many times suite-cold re-runs the registry on its
// now-warm pool: 4 x 26 experiments gives the 100 samples a p90 needs.
const warmPasses = 4

// suiteParallelism is the cold suite's worker count. It is serial: at
// nproc workers the suite's wall time hinged on where fig4, about half
// the suite's work, fell in the seeded order, so the seed moved the
// figure by as much as the host did. Serial, the order changes nothing
// but the order, and the wall time is the suite's simulation cost.
const suiteParallelism = 1

// runSuite is the suite-cold workload: the full registry through
// experiments.RunMany at suiteParallelism on a private cold pool, with
// Config.Seed 1. The workload seed only permutes the order the
// experiments are handed over. The warm passes then time the cache-hit
// path of the same pool, one experiment at a time.
func runSuite(r *round) error {
	reg := experiments.Registry()
	exps := make([]experiments.Experiment, len(reg))
	for i, j := range r.rng.Perm(len(reg)) {
		exps[i] = reg[j]
	}
	cfg := experiments.DefaultConfig()
	cfg.Parallelism = suiteParallelism
	cfg.Pool = core.New(core.WithIterations(cfg.Iterations), core.WithSeed(cfg.Seed), core.WithParallelism(cfg.Parallelism))
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	if !r.ready() {
		return nil
	}

	if err := r.tr.start(); err != nil {
		return err
	}
	a0 := totalAlloc()
	start := time.Now()
	var cold []experiments.RunResult
	r.tr.do("cold", func() { cold = experiments.RunMany(cfg, exps) })
	end := time.Now()
	r.res.AllocMB = float64(totalAlloc()-a0) / 1e6
	r.res.ColdS = end.Sub(start).Seconds()
	r.tr.record("suite.cold", "suite", "", start, end)
	coldStats := cfg.Pool.Stats()
	r.count(cold, &r.res.ColdMs)

	// The warm passes serve one experiment at a time, as stashd's
	// GET /v1/experiments/{id} does, so each sample is one experiment's
	// cache-hit cost and not its overlap with another. They start from
	// a collected heap, as the cold suite does, so where a collection
	// lands among them does not depend on what the cold suite left.
	warm := make([]experiments.RunResult, len(exps))
	runtime.GC()
	warmStart := time.Now()
	r.tr.do("warm", func() {
		for k := 0; k < warmPasses; k++ {
			for i, e := range exps {
				t := time.Now()
				tables, err := e.Run(cfg)
				warm[i] = experiments.RunResult{Experiment: e, Tables: tables, Elapsed: time.Since(t), Err: err}
				r.res.WarmEndS = append(r.res.WarmEndS, time.Since(warmStart).Seconds())
			}
			r.tr.record(fmt.Sprintf("suite.warm.%d", k), "suite", "", warmStart, time.Now())
			r.count(warm, &r.res.WarmMs)
		}
	})
	r.res.WarmS = time.Since(warmStart).Seconds()
	if err := r.stopTrace(); err != nil {
		return err
	}
	r.coreLayers(poolStats{
		requests: float64(coldStats.Requests), simulated: float64(coldStats.Simulated),
		hits: float64(coldStats.CacheHits), waits: float64(coldStats.Waits),
	})

	r.checkf(coldStats.Simulated == suiteSimulated,
		"cold suite simulated %d scenarios, want exactly %d", coldStats.Simulated, suiteSimulated)
	r.checkf(coldStats.Balance() == 0, "cold suite counters do not conserve: %v", coldStats)
	warmStats := cfg.Pool.Stats()
	r.checkf(warmStats.Simulated == coldStats.Simulated,
		"warm passes simulated %d scenarios, want 0", warmStats.Simulated-coldStats.Simulated)
	r.checkf(warmStats.Balance() == 0, "warm suite counters do not conserve: %v", warmStats)
	coldText, err := renderSuite(reg, cold)
	if err != nil {
		return err
	}
	r.checkf(normalizeSuite(coldText) == normalizeSuite(string(golden)),
		"cold suite tables differ from %s", goldenPath)
	warmText, err := renderSuite(reg, warm)
	if err != nil {
		return err
	}
	r.checkf(normalizeSuite(warmText) == normalizeSuite(coldText), "warm suite tables differ from the cold suite's")
	return nil
}

// count tallies one RunMany pass as operations and appends each
// experiment's elapsed time.
func (r *round) count(results []experiments.RunResult, into *[]float64) {
	for _, res := range results {
		r.res.Attempted++
		if res.Err != nil {
			r.res.Failed++
			r.res.Errors = append(r.res.Errors, fmt.Sprintf("%s: %v", res.Experiment.ID, res.Err))
		}
		*into = append(*into, ms(res.Elapsed))
	}
}

// renderSuite prints results in registry order exactly as
// cmd/characterize does.
func renderSuite(reg []experiments.Experiment, results []experiments.RunResult) (string, error) {
	byID := make(map[string]experiments.RunResult, len(results))
	for _, res := range results {
		byID[res.Experiment.ID] = res
	}
	var b strings.Builder
	for _, e := range reg {
		res, ok := byID[e.ID]
		if !ok {
			return "", fmt.Errorf("suite returned no result for %s", e.ID)
		}
		fmt.Fprintf(&b, "# %s (%s, simulated in %v)\n\n", e.Title, e.ID, res.Elapsed.Round(time.Millisecond))
		for _, t := range res.Tables {
			b.WriteString(t.String())
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

var simulatedIn = regexp.MustCompile(`simulated in [^)]*\)`)

// normalizeSuite drops the wall-clock part of the experiment headers
// and any scheduler line, the only output that varies between runs.
func normalizeSuite(s string) string {
	s = simulatedIn.ReplaceAllString(s, "simulated in X)")
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "# scheduler:") {
			keep = append(keep, line)
		}
	}
	return strings.TrimRight(strings.Join(keep, "\n"), "\n")
}
