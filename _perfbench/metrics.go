package main

import "stash/internal/experiments"

// layerMetric is one per-layer metric a traced run reports.
type layerMetric struct {
	name, unit string
}

// perLayerMetrics is every metric of a traced run, in report order.
// The CPU and allocation buckets are those of the process that runs
// the layers: the round itself on suite-cold, the stashd process on the
// server workloads, whose load process's CPU time is
// bench.client_cpu_s. Workloads that never reach a layer report its
// metrics as 0 (the suite never enters api); the probe metrics (experiments.run_s.*,
// core.profile_*, report.*) are the same measurement in every
// workload's traced run.
var perLayerMetrics = func() []layerMetric {
	var ms []layerMetric
	for _, b := range cpuBuckets {
		ms = append(ms, layerMetric{cpuMetricName(b), "s"})
	}
	ms = append(ms, layerMetric{"cpu.total_s", "s"}, layerMetric{"bench.client_cpu_s", "s"})
	for _, b := range allocBuckets {
		ms = append(ms, layerMetric{allocMetricName(b), "MB"})
	}
	for _, e := range experiments.Registry() {
		ms = append(ms, layerMetric{"experiments.run_s." + e.ID, "s"})
	}
	return append(ms,
		layerMetric{"core.requests", "count"},
		layerMetric{"core.simulated", "count"},
		layerMetric{"core.cache_hits", "count"},
		layerMetric{"core.waits", "count"},
		layerMetric{"core.hit_ratio", "ratio"},
		layerMetric{"core.profile_cold_ms.p50", "ms"},
		layerMetric{"core.profile_cold_ms.p90", "ms"},
		layerMetric{"core.profile_hit_us.p50", "us"},
		layerMetric{"core.profile_hit_us.p99", "us"},
		layerMetric{"api.server_ms.profile", "ms"},
		layerMetric{"api.server_ms.recommend", "ms"},
		layerMetric{"api.server_ms.job-create", "ms"},
		layerMetric{"api.server_ms.job-get", "ms"},
		layerMetric{"api.server_ms.job-result", "ms"},
		layerMetric{"api.overloaded", "count"},
		layerMetric{"api.job_queue_wait_s.p50", "s"},
		layerMetric{"api.job_queue_wait_s.max", "s"},
		layerMetric{"api.job_run_s.p50", "s"},
		layerMetric{"api.job_run_s.max", "s"},
		layerMetric{"api.tenant_finish_ratio", "ratio"},
		layerMetric{"report.render_ms", "ms"},
		layerMetric{"report.cells", "count"},
		layerMetric{"trace.overhead_frac", "ratio"},
	)
}()
