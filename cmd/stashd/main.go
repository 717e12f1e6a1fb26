// Command stashd is the long-running Stash profiling service: the
// profiler, the recommendation engine and all 25 paper artifacts served
// over a versioned JSON API (see docs/API.md for the API contract and
// docs/OPERATIONS.md for the operator guide).
//
// Usage:
//
//	stashd [-addr :8321] [-iters N] [-exp-iters N] [-seed S]
//	       [-parallel N] [-max-concurrent N]
//	       [-request-timeout D] [-drain-timeout D]
//	       [-job-workers N] [-job-ttl D] [-max-jobs N]
//	       [-tenant-quota N] [-tenant-weights name=w,...]
//	       [-peers url,url,... -cluster-addr :8322 [-cluster-advertise URL]]
//
// Cluster mode: -peers lists every replica's cluster base URL (this
// replica included, same set on every replica); -cluster-addr is the
// peer-protocol listener and -cluster-advertise the URL peers reach it
// at (default http://<cluster-addr>). Scenario keys shard across
// replicas on a consistent-hash ring with cluster-wide single-flight,
// and idle replicas steal grid-sweep cells from busy ones; see
// docs/OPERATIONS.md for topology and failure semantics.
//
// Endpoints:
//
//	POST   /v1/profile              four stalls + epoch cost for one workload
//	POST   /v1/recommend            ranked configurations under constraints
//	GET    /v1/experiments          the paper-artifact registry
//	GET    /v1/experiments/{id}     run one artifact, tables as JSON
//	POST   /v2/jobs                 submit an asynchronous job (202 + id)
//	GET    /v2/jobs                 list the tenant's jobs (?state= filter)
//	GET    /v2/jobs/{id}            job status snapshot with progress
//	GET    /v2/jobs/{id}/result     replay a terminal job's exact result
//	GET    /v2/jobs/{id}/events     SSE progress stream to the terminal event
//	DELETE /v2/jobs/{id}            cancel a queued or running job
//	GET    /healthz                 liveness probe
//	GET    /healthz?deep=1          bounded invariant audit + live pool checks
//	GET    /metrics                 Prometheus text counters
//
// The server owns two single-flight memoized profilers (one for
// profile/recommend/blame, one for experiments), so repeated and
// concurrent requests for overlapping scenarios simulate each distinct
// scenario exactly once. Jobs are scoped to the tenant named
// by the X-Stash-Tenant header and scheduled by a two-level weighted
// fair queue on a worker pool separate from the v1 concurrency gate.
// On SIGTERM/SIGINT the server rejects new jobs, cancels queued ones,
// gives running jobs and in-flight requests up to -drain-timeout to
// settle, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stash/internal/api"
	"stash/internal/cluster"
	"stash/internal/core"
	"stash/internal/experiments"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stashd:", err)
		os.Exit(1)
	}
}

// config holds stashd's parsed flags.
type config struct {
	addr             string
	iters            int
	expIters         int
	seed             int64
	parallel         int
	maxConc          int
	reqTimeout       time.Duration
	drainTimeout     time.Duration
	jobWorkers       int
	jobTTL           time.Duration
	maxJobs          int
	tenantQuota      int
	tenantWeights    string
	peers            string
	clusterAddr      string
	clusterAdvertise string
}

// newFlagSet declares stashd's flags, storing their values in c.
func newFlagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("stashd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8321", "listen address")
	fs.IntVar(&c.iters, "iters", core.DefaultIterations, "profiling iterations per scenario (profile/recommend)")
	fs.IntVar(&c.expIters, "exp-iters", experiments.DefaultConfig().Iterations, "profiling iterations per scenario (experiments)")
	fs.Int64Var(&c.seed, "seed", 1, "provisioning seed")
	fs.IntVar(&c.parallel, "parallel", 0, "per-request worker pool size (0 or negative = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&c.maxConc, "max-concurrent", runtime.GOMAXPROCS(0), "concurrent heavy requests (profile/recommend/experiment)")
	fs.DurationVar(&c.reqTimeout, "request-timeout", api.DefaultRequestTimeout, "per-request deadline")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown drain window")
	fs.IntVar(&c.jobWorkers, "job-workers", api.DefaultJobWorkers, "v2 job executor pool size")
	fs.DurationVar(&c.jobTTL, "job-ttl", api.DefaultJobTTL, "retention window for terminal v2 jobs")
	fs.IntVar(&c.maxJobs, "max-jobs", api.DefaultJobStoreMax, "v2 job store capacity (live + retained terminal jobs)")
	fs.IntVar(&c.tenantQuota, "tenant-quota", api.DefaultTenantQuota, "concurrent live (queued+running) v2 jobs per tenant")
	fs.StringVar(&c.tenantWeights, "tenant-weights", "", "fair-queue tenant weights as name=w,name=w (default weight 1)")
	fs.StringVar(&c.peers, "peers", "", "cluster replica base URLs, comma-separated (this replica included); empty = standalone")
	fs.StringVar(&c.clusterAddr, "cluster-addr", ":8322", "cluster peer-protocol listen address (with -peers)")
	fs.StringVar(&c.clusterAdvertise, "cluster-advertise", "", "URL peers reach this replica's cluster listener at (default http://<cluster-addr>)")
	return fs
}

// run starts the service and blocks until the listener fails or ctx is
// cancelled (the signal context in main); it then drains in-flight
// requests before returning.
func run(ctx context.Context, args []string, out io.Writer) error {
	var c config
	fs := newFlagSet(&c)
	if err := fs.Parse(args); err != nil {
		return err
	}
	weights, err := parseTenantWeights(c.tenantWeights)
	if err != nil {
		return err
	}

	opts := []api.Option{
		api.WithIterations(c.iters),
		api.WithExperimentIterations(c.expIters),
		api.WithSeed(c.seed),
		api.WithParallelism(c.parallel),
		api.WithMaxConcurrent(c.maxConc),
		api.WithRequestTimeout(c.reqTimeout),
		api.WithJobWorkers(c.jobWorkers),
		api.WithJobTTL(c.jobTTL),
		api.WithJobStoreMax(c.maxJobs),
		api.WithTenantQuota(c.tenantQuota),
	}
	for _, tw := range weights {
		opts = append(opts, api.WithTenantWeight(tw.name, tw.weight))
	}

	// Cluster mode: build the node first (api.New starts it with the
	// serving backend) and put its peer protocol on its own listener,
	// so operator traffic and replica traffic never share a port.
	var node *cluster.Node
	var clusterLn net.Listener
	if c.peers != "" {
		clusterLn, err = net.Listen("tcp", c.clusterAddr)
		if err != nil {
			return err
		}
		self := c.clusterAdvertise
		if self == "" {
			self = "http://" + clusterLn.Addr().String()
		}
		node, err = cluster.New(cluster.Config{Self: self, Peers: strings.Split(c.peers, ",")})
		if err != nil {
			clusterLn.Close()
			return err
		}
		opts = append(opts, api.WithCluster(node))
	}

	srv := api.New(opts...)
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		if clusterLn != nil {
			clusterLn.Close()
		}
		return err
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(out, "stashd: listening on %s\n", ln.Addr())

	var chs *http.Server
	clusterErr := make(chan error, 1)
	if node != nil {
		chs = &http.Server{
			Handler:           node.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() { clusterErr <- chs.Serve(clusterLn) }()
		fmt.Fprintf(out, "stashd: cluster protocol on %s as %s (%d replicas)\n",
			clusterLn.Addr(), node.Self(), node.PeerCount()+1)
	}

	select {
	case err := <-serveErr:
		return err
	case err := <-clusterErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "stashd: shutting down, draining jobs and in-flight requests")
	//lint:allow ctxflow the serve ctx is already cancelled here; the drain deadline must outlive it
	dctx, cancel := context.WithTimeout(context.Background(), c.drainTimeout)
	defer cancel()
	// Drain order matters: first announce draining to peers and hand
	// queued stolen cells back to their owners (node.Drain), then settle
	// local jobs (srv.Drain) while both listeners still answer, and only
	// then stop accepting connections.
	if node != nil {
		node.Drain(dctx)
	}
	srv.Drain(dctx)
	if chs != nil {
		if err := chs.Shutdown(dctx); err != nil {
			return fmt.Errorf("cluster drain: %w", err)
		}
	}
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if node != nil {
		node.Stop()
		if err := <-clusterErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "stashd: drained, exiting")
	return nil
}

// tenantWeight is one -tenant-weights entry.
type tenantWeight struct {
	name   string
	weight int
}

// parseTenantWeights parses "name=w,name=w" into ordered entries.
func parseTenantWeights(s string) ([]tenantWeight, error) {
	if s == "" {
		return nil, nil
	}
	var out []tenantWeight
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant-weights: %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant-weights: %q needs a positive integer weight", part)
		}
		out = append(out, tenantWeight{name: name, weight: w})
	}
	return out, nil
}
