package experiments

import (
	"fmt"
	"time"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/report"
	"stash/internal/workload"
)

// forEach runs fn(0..n-1) on a worker pool bounded by the config's
// Parallelism (0 or negative = GOMAXPROCS, 1 = serial). Failures are
// deterministic:
// the lowest-index error wins regardless of completion order. The
// config's context (WithContext) cancels the sweep between cells.
func (c Config) forEach(n int, fn func(i int) error) error {
	return core.ForEachCtx(c.context(), c.normalize().Parallelism, n, fn)
}

// gridCells computes the jobs x configs cell grid of a figure panel
// concurrently: cell is called once per (job, cluster config) pair and
// returns one rendered string per output table. OOM cells render as
// "OOM" in every table; other errors abort the panel. The grid comes
// back indexed [job*len(configs)+config], so callers assemble rows in
// fixed order and the rendered tables are byte-identical at any
// parallelism.
func gridCells(cfg Config, jobs []workload.Job, configs []clusterConfig, tables int,
	cell func(p *core.Profiler, job workload.Job, it cloud.InstanceType, cc clusterConfig) ([]string, error),
) ([][]string, error) {
	p := cfg.profiler()
	grid := make([][]string, len(jobs)*len(configs))
	err := cfg.forEach(len(grid), func(i int) error {
		job, cc := jobs[i/len(configs)], configs[i%len(configs)]
		it, err := instanceOf(cc)
		if err != nil {
			return err
		}
		out, err := cell(p, job, it, cc)
		if err != nil {
			s, cerr := cellErr(err)
			if cerr != nil {
				return fmt.Errorf("%s on %s: %w", jobLabel(job), cc.label, cerr)
			}
			out = make([]string, tables)
			for t := range out {
				out[t] = s
			}
		}
		grid[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return grid, nil
}

// RunResult is one experiment's outcome from RunMany.
type RunResult struct {
	Experiment Experiment
	Tables     []*report.Table
	Elapsed    time.Duration
	Err        error
}

// RunMany executes experiments on a worker pool bounded by
// cfg.Parallelism. All experiments share cfg.Pool (a nil Pool is filled
// by WithPool), so overlapping cells (every figure re-measures the same
// step-1 baselines, for example) simulate once; results come back in
// input order so callers print in paper order.
func RunMany(cfg Config, exps []Experiment) []RunResult {
	if cfg.Pool == nil {
		cfg = cfg.WithPool()
	}
	results := make([]RunResult, len(exps))
	// Experiment errors are reported per result, never aborting the
	// sweep, so forEach's own error path stays unused here.
	_ = cfg.forEach(len(exps), func(i int) error {
		start := time.Now() //lint:allow wallclock per-experiment Elapsed metric, reported alongside tables but never inside one
		tables, err := exps[i].Run(cfg)
		results[i] = RunResult{
			Experiment: exps[i],
			Tables:     tables,
			//lint:allow wallclock per-experiment Elapsed metric, reported alongside tables but never inside one
			Elapsed: time.Since(start),
			Err:     err,
		}
		return nil
	})
	return results
}
