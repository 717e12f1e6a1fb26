package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"stash/internal/cluster"
	"stash/internal/core"
	"stash/internal/train"
)

// WithCluster joins the server to a stashd cluster. New takes ownership
// of starting the node (it injects the serving backend and calls
// node.Start); stopping it — and draining it ahead of Server.Drain on
// shutdown — stays with the caller, who created it and owns its
// listener.
//
// Cluster mode keeps the server's own two pools and attaches a remote
// resolver to each, so a cache miss consults the ring. Every replica
// sees only its own scenario cache and counters, which is what lets the
// single-flight audit tell a remote hit from a local one.
func WithCluster(node *cluster.Node) Option {
	return func(s *Server) { s.clusterNode = node }
}

// clusterBackend is the serving side of the peer protocol: how this
// replica computes scenarios and sweep cells for its peers, and which
// counters it gossips. Everything dispatches through the same functions
// as the local paths, so a peer-served result is byte-identical to a
// locally computed one.
func (s *Server) clusterBackend() cluster.Backend {
	pools := map[string]*core.Profiler{
		"profile":     s.profiler,
		"experiments": s.expCfg.Pool,
	}
	return cluster.Backend{
		Scenario: func(ctx context.Context, pool string, spec core.ScenarioSpec) (*train.Result, error) {
			p := pools[pool]
			if p == nil {
				return nil, fmt.Errorf("%w: unknown pool %q", cluster.ErrDecline, pool)
			}
			job, it, err := core.SpecJob(spec)
			if err != nil {
				// A mixed-build cluster (unknown model/instance names)
				// declines rather than erroring: the requester computes
				// locally and nothing wrong is ever cached.
				return nil, fmt.Errorf("%w: %v", cluster.ErrDecline, err)
			}
			return p.RunLocalScenario(ctx, job, it, spec.Count, spec.GPUsPer, spec.Mode)
		},
		ExecCell: func(ctx context.Context, id string) ([]byte, *cluster.CellError) {
			resp, aerr := s.computeExperiment(ctx, id)
			if aerr != nil {
				return nil, &cluster.CellError{Status: aerr.status, Code: aerr.code, Message: aerr.message}
			}
			return encodeJSON(resp), nil
		},
		Idle: s.jobsStore.idle,
		Pools: func() map[string]core.Stats {
			return map[string]core.Stats{
				"profile":     s.profiler.Stats(),
				"experiments": s.expCfg.Pool.Stats(),
			}
		},
		TenantPools: func() map[string]map[string]core.Stats {
			return map[string]map[string]core.Stats{
				"profile":     s.profiler.TenantStats(),
				"experiments": s.expCfg.Pool.TenantStats(),
			}
		},
	}
}

// clusterExperimentsResult mirrors JobExperimentsResult with each
// entry's wire bytes kept verbatim: the merge step splices the
// committed cells — wherever they were computed — into exactly the
// bytes the single-node serial loop would have encoded.
type clusterExperimentsResult struct {
	Experiments []json.RawMessage `json:"experiments"`
}

// executeClusterSweep runs one experiments job as a cluster sweep: the
// owner computes cells from the head while idle replicas steal tail
// ranges, and commits arrive in strict index order. Progress is
// reported in experiment cells (not scenario cells like the single-node
// path): scenario-level hooks cannot see cells computed on peers, and a
// mixed count would not be monotone against any total.
func (s *Server) executeClusterSweep(j *job, ids []string, fail func(*apiError)) {
	// Tenant attribution only — deliberately no core progress hook
	// (see above); cells tick once per committed cell instead.
	ctx := core.WithTenant(j.runCtx, j.tenant)
	s.jobsStore.progress(j, 0, len(ids))

	parts := make([]json.RawMessage, 0, len(ids))
	cellErr, err := s.clusterNode.RunSweep(ctx, ids, j.tenant, func(i int, data []byte) {
		s.jobsStore.addPartial(j, ids[i], data)
		s.jobsStore.progress(j, 1, 0)
		parts = append(parts, json.RawMessage(bytes.TrimRight(data, "\n")))
	})
	switch {
	case err != nil:
		// Context death: same mapping the serial loop's
		// computeExperiment would have produced.
		fail(errToAPI(err))
	case cellErr != nil:
		// Lowest-index cell failure: cells before it are committed as
		// partials, the job fails with that cell's error — the serial
		// loop's stop-at-first-error semantics.
		fail(&apiError{status: cellErr.Status, code: cellErr.Code, message: cellErr.Message})
	default:
		s.jobsStore.finish(j, encodeJSON(clusterExperimentsResult{Experiments: parts}), http.StatusOK, nil)
	}
}
