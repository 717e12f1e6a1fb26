package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/experiments"
	"stash/internal/report"
	"stash/internal/workload"
)

// renderRepeats is how many times the probe renders the suite's tables;
// report.render_ms is the median.
const renderRepeats = 5

// runProbeChild times the layers a workload only reaches through
// others, each on its own cold state, and prints them as a round
// result's Layers:
//   - experiments.run_s.<id>: each experiment by Experiment.Run, in
//     registry order, on one cold pool;
//   - report.render_ms and report.cells: String, CSV and MarshalJSON of
//     every table that suite produced;
//   - core.profile_cold_ms and core.profile_hit_us: profile-serve's key
//     sequence on a private profiler, with no HTTP.
func runProbeChild(seed int64) int {
	res := roundResult{Layers: map[string]float64{}}
	if err := probe(seed, &res); err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	if err := emit(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func probe(seed int64, res *roundResult) error {
	nproc := runtime.NumCPU()
	cfg := experiments.DefaultConfig()
	cfg.Parallelism = nproc
	cfg.Pool = core.New(core.WithIterations(cfg.Iterations), core.WithSeed(cfg.Seed), core.WithParallelism(cfg.Parallelism))
	origin := time.Now()
	var tables []*report.Table
	for _, e := range experiments.Registry() {
		t := time.Now()
		ts, err := e.Run(cfg)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		res.Layers["experiments.run_s."+e.ID] = end.Sub(t).Seconds()
		res.Spans = append(res.Spans, span{Name: "experiment." + e.ID, ID: "probe-suite", Parent: "probe.suite",
			Workload: "probe", StartMs: ms(t.Sub(origin)), EndMs: ms(end.Sub(origin))})
		tables = append(tables, ts...)
	}
	if st := cfg.Pool.Stats(); st.Simulated != suiteSimulated {
		res.Errors = append(res.Errors, fmt.Sprintf("serial cold suite simulated %d scenarios, want %d", st.Simulated, suiteSimulated))
	}

	var renders []float64
	cells := 0
	for k := 0; k < renderRepeats; k++ {
		t := time.Now()
		for _, tb := range tables {
			_ = tb.String()
			_ = tb.CSV()
			if _, err := json.Marshal(tb); err != nil {
				return err
			}
		}
		renders = append(renders, ms(time.Since(t)))
	}
	for _, tb := range tables {
		cells += tb.NumRows() * len(tb.Columns)
	}
	res.Layers["report.render_ms"] = median(renders)
	res.Layers["report.cells"] = float64(cells)

	// The profiler a default stashd builds for /v1/profile.
	p := core.New(core.WithIterations(core.DefaultIterations), core.WithSeed(1), core.WithParallelism(0))
	rng := newRand(seed)
	keys := profileKeys()
	order := coldOrder(rng, len(keys))
	seq := zipfSequence(rng, warmRequests)
	jobs := make([]workload.Job, len(keys))
	its := make([]cloud.InstanceType, len(keys))
	for i, k := range keys {
		m, err := dnn.Resolve(k.Model)
		if err != nil {
			return err
		}
		if jobs[i], err = workload.NewJob(m, k.Batch); err != nil {
			return err
		}
		if its[i], err = cloud.ByName(k.Instance); err != nil {
			return err
		}
	}
	profileAll := func(n int, key func(int) int) ([]float64, error) {
		lat := make([]float64, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, nproc)
		for c := 0; c < nproc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					k := key(i)
					t := time.Now()
					if _, err := p.ProfileContext(context.Background(), jobs[k], its[k]); err != nil {
						errs[c] = fmt.Errorf("profile %s: %w", keys[k], err)
						return
					}
					lat[i] = float64(time.Since(t).Nanoseconds())
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return lat, nil
	}
	cold, err := profileAll(len(keys), func(i int) int { return order[i] })
	if err != nil {
		return err
	}
	before := p.Stats()
	hit, err := profileAll(len(seq), func(i int) int { return seq[i] })
	if err != nil {
		return err
	}
	if after := p.Stats(); after.Simulated != before.Simulated {
		res.Errors = append(res.Errors, fmt.Sprintf("hit replay simulated %d scenarios, want 0", after.Simulated-before.Simulated))
	}
	res.Layers["core.profile_cold_ms.p50"] = quantile(cold, 0.5) / 1e6
	res.Layers["core.profile_cold_ms.p90"] = quantile(cold, 0.9) / 1e6
	res.Layers["core.profile_hit_us.p50"] = quantile(hit, 0.5) / 1e3
	res.Layers["core.profile_hit_us.p99"] = quantile(hit, 0.99) / 1e3
	return nil
}
