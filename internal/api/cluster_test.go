package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stash/internal/audit"
	"stash/internal/cluster"
	"stash/internal/report"
)

// macroSweepIDs is the paper's macro-characterization sweep: the stall
// and time/cost figures across both instance generations. Large enough
// that idle replicas have real tail ranges to steal, small enough to
// run at test iteration counts.
var macroSweepIDs = []string{"fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12"}

func macroSweepBody() string {
	ids, _ := json.Marshal(macroSweepIDs)
	return fmt.Sprintf(`{"type":"experiments","experiments":{"ids":%s}}`, ids)
}

// clusterHarness is a 3-replica in-process cluster: each replica is a
// full api.Server with its cluster node's peer protocol on its own
// httptest listener.
type clusterHarness struct {
	servers []*Server
	api     []*httptest.Server
	nodes   []*cluster.Node
	peersrv []*httptest.Server
}

// newClusterHarness boots n replicas. wrap (optional) intercepts
// replica i's peer-protocol handler — the fault-injection hook.
func newClusterHarness(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler, opts ...Option) *clusterHarness {
	t.Helper()
	h := &clusterHarness{
		servers: make([]*Server, n),
		api:     make([]*httptest.Server, n),
		nodes:   make([]*cluster.Node, n),
		peersrv: make([]*httptest.Server, n),
	}
	// Peer listeners first: their URLs are the cluster names. The
	// handler indirects through h.nodes so the servers can exist before
	// the nodes do. api.New starts a node, which contacts its peers at
	// once, so handlers wait on ready until every h.nodes entry is set.
	ready := make(chan struct{})
	defer close(ready)
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-ready
			h.nodes[i].Handler().ServeHTTP(w, r)
		})
		var handler http.Handler = inner
		if wrap != nil {
			handler = wrap(i, inner)
		}
		h.peersrv[i] = httptest.NewServer(handler)
		peers[i] = h.peersrv[i].URL
	}
	for i := 0; i < n; i++ {
		node, err := cluster.New(cluster.Config{
			Self:              peers[i],
			Peers:             peers,
			HeartbeatInterval: 20 * time.Millisecond,
			FailureThreshold:  2,
			StealInterval:     5 * time.Millisecond,
			LeaseTimeout:      400 * time.Millisecond,
			FetchTimeout:      30 * time.Second,
			ProbeTimeout:      2 * time.Second,
		})
		if err != nil {
			t.Fatalf("cluster.New replica %d: %v", i, err)
		}
		h.nodes[i] = node
		// api.New starts the node with the serving backend.
		h.servers[i] = New(append([]Option{
			WithExperimentIterations(2), WithSeed(5), WithCluster(node),
		}, opts...)...)
		h.api[i] = httptest.NewServer(h.servers[i].Handler())
	}
	t.Cleanup(func() {
		for i := 0; i < n; i++ {
			h.nodes[i].Stop()
			h.api[i].Close()
			h.closePeer(i)
		}
	})
	return h
}

var peerCloseOnce sync.Map // *httptest.Server -> *sync.Once

// closePeer closes replica i's peer listener exactly once (the kill
// test closes the victim's mid-test, cleanup closes the rest).
func (h *clusterHarness) closePeer(i int) {
	once, _ := peerCloseOnce.LoadOrStore(h.peersrv[i], new(sync.Once))
	once.(*sync.Once).Do(h.peersrv[i].Close)
}

// singleNodeSweepResult runs the macro sweep on a standalone (no
// cluster) server with the same profiling configuration and returns the
// terminal job result bytes — the reference every merged artifact must
// match byte-for-byte — plus the number of unique scenarios it
// simulated.
func singleNodeSweepResult(t *testing.T) ([]byte, int64) {
	t.Helper()
	s, ts := newTestServer(t, WithExperimentIterations(2), WithSeed(5))
	id := submitJob(t, ts.URL, "", macroSweepBody())
	waitTerminal(t, ts.URL, "", id)
	code, body := getBody(t, ts.URL+"/v2/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("single-node sweep result = %d: %s", code, body)
	}
	return body, s.expCfg.Pool.Stats().Simulated
}

// renderedTables decodes a JobExperimentsResult wire body and renders
// every table's text form — the second identity axis: not just the
// same JSON, the same human-readable artifact.
func renderedTables(t *testing.T, body []byte) string {
	t.Helper()
	var out struct {
		Experiments []struct {
			ID     string          `json:"id"`
			Tables []*report.Table `json:"tables"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode sweep result: %v", err)
	}
	var b bytes.Buffer
	for _, e := range out.Experiments {
		fmt.Fprintf(&b, "== %s ==\n", e.ID)
		for _, tb := range e.Tables {
			b.WriteString(tb.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func runClusterSweep(t *testing.T, h *clusterHarness, owner int) []byte {
	t.Helper()
	id := submitJob(t, h.api[owner].URL, "", macroSweepBody())
	waitTerminal(t, h.api[owner].URL, "", id)
	code, body := getBody(t, h.api[owner].URL+"/v2/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("cluster sweep result = %d: %s", code, body)
	}
	return body
}

// TestClusterSweepByteIdenticalAndSingleFlight runs the macro sweep on
// a healthy 3-replica cluster and pins the two headline guarantees:
// the merged artifact is byte-identical to the single-node run (JSON
// and rendered-table forms), and the cluster as a whole simulated each
// unique scenario at most once.
func TestClusterSweepByteIdenticalAndSingleFlight(t *testing.T) {
	single, unique := singleNodeSweepResult(t)
	h := newClusterHarness(t, 3, nil)
	merged := runClusterSweep(t, h, 0)

	if res := audit.CheckMergeIdentity("macro-sweep", single, merged); !res.Ok() {
		t.Fatalf("merged artifact diverges from single-node:\n%v", res.Strings())
	}
	if st, mt := renderedTables(t, single), renderedTables(t, merged); st != mt {
		t.Fatalf("rendered tables diverge:\nsingle:\n%s\nmerged:\n%s", st, mt)
	}

	if unique < 1 {
		t.Fatalf("single-node reference simulated %d scenarios", unique)
	}
	replicas := make([]audit.ClusterReplica, len(h.servers))
	var total int64
	for i, s := range h.servers {
		replicas[i] = audit.ClusterReplica{Name: fmt.Sprintf("replica-%d", i), Stats: s.expCfg.Pool.Stats()}
		total += replicas[i].Stats.Simulated
	}
	if res := audit.CheckClusterSingleFlight(replicas, unique); !res.Ok() {
		t.Fatalf("cluster single-flight audit failed (total=%d unique=%d):\n%v", total, unique, res.Strings())
	}
	if total > unique {
		t.Fatalf("cluster simulated %d scenarios for %d unique", total, unique)
	}
	// The sharded cache actually engaged: at least one replica resolved
	// scenarios remotely or served them for peers.
	var remote int64
	for _, s := range h.servers {
		remote += s.expCfg.Pool.Stats().RemoteHits
	}
	if remote == 0 && h.nodes[0].Metrics().Served == 0 {
		t.Fatal("no cross-replica scenario traffic at all")
	}
}

// TestClusterSweepReplicaKillReissuesAndStaysByteIdentical injects a
// mid-sweep replica death: the first thief to win a steal grant
// "dies" — its peer listener closes and its completion report is lost —
// so the owner's lease expires, the stolen range re-enters the pending
// set, and the survivors finish it. The merged artifact must still be
// byte-identical to the single-node run.
func TestClusterSweepReplicaKillReissuesAndStaysByteIdentical(t *testing.T) {
	single, _ := singleNodeSweepResult(t)

	// victim guards the fault-injection state: the first thief to win a
	// non-empty grant becomes the victim, its lease's report is lost and
	// its later steal polls are refused.
	var victim struct {
		sync.Mutex
		lease int64
		name  string
	}
	victimChosen := make(chan string, 1)
	var h *clusterHarness
	// Fault injection wraps the owner's (replica 0's) peer listener:
	// it watches steal grants go out and swallows the doomed report.
	wrap := func(i int, inner http.Handler) http.Handler {
		if i != 0 {
			return inner
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			switch r.URL.Path {
			case "/cluster/v1/steal":
				var sreq struct {
					Thief string `json:"thief"`
				}
				_ = json.Unmarshal(body, &sreq)
				victim.Lock()
				name := victim.name
				victim.Unlock()
				if name != "" {
					if sreq.Thief == name {
						// The victim is dead; its polls go nowhere.
						http.Error(w, "connection refused", http.StatusBadGateway)
						return
					}
					break
				}
				// No victim yet: record the first real grant and mark
				// its thief as the replica about to die.
				rec := httptest.NewRecorder()
				inner.ServeHTTP(rec, r)
				if rec.Code == http.StatusOK {
					var grant struct {
						Lease int64    `json:"lease"`
						IDs   []string `json:"ids"`
					}
					_ = json.Unmarshal(rec.Body.Bytes(), &grant)
					if len(grant.IDs) > 0 {
						victim.Lock()
						if victim.name == "" {
							victim.name, victim.lease = sreq.Thief, grant.Lease
							victimChosen <- sreq.Thief
						}
						victim.Unlock()
					}
				}
				for k, vs := range rec.Header() {
					for _, v := range vs {
						w.Header().Add(k, v)
					}
				}
				w.WriteHeader(rec.Code)
				_, _ = w.Write(rec.Body.Bytes())
				return
			case "/cluster/v1/complete":
				var creq struct {
					Lease int64 `json:"lease"`
				}
				_ = json.Unmarshal(body, &creq)
				victim.Lock()
				lost := victim.lease != 0 && creq.Lease == victim.lease
				victim.Unlock()
				if lost {
					// The thief died with the range: the report is lost.
					http.Error(w, "connection lost", http.StatusBadGateway)
					return
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	h = newClusterHarness(t, 3, wrap)

	// Kill the victim's inbound listener the moment it wins a grant, so
	// gossip sees a dead replica, not just a lost report.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		name := <-victimChosen
		for i, ps := range h.peersrv {
			if ps.URL == name {
				h.closePeer(i)
				return
			}
		}
	}()

	merged := runClusterSweep(t, h, 0)
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("no replica ever won a steal grant; nothing was killed")
	}

	if got := h.nodes[0].Metrics().Reissued; got < 1 {
		t.Fatalf("owner reissued %d cells, want >= 1", got)
	}
	if res := audit.CheckMergeIdentity("macro-sweep-kill", single, merged); !res.Ok() {
		t.Fatalf("merged artifact diverges from single-node after replica kill:\n%v", res.Strings())
	}
	if st, mt := renderedTables(t, single), renderedTables(t, merged); st != mt {
		t.Fatalf("rendered tables diverge after replica kill:\nsingle:\n%s\nmerged:\n%s", st, mt)
	}

	// Gossip eventually declares the victim dead on the owner.
	victim.Lock()
	victimURL := victim.name
	victim.Unlock()
	deadline := time.Now().Add(10 * time.Second) //lint:allow wallclock test polling deadline
	for {
		alive := false
		for _, p := range h.nodes[0].Peers() {
			if p.Name == victimURL && p.Alive {
				alive = true
			}
		}
		if !alive {
			break
		}
		if time.Now().After(deadline) { //lint:allow wallclock test polling deadline
			t.Fatal("owner never marked the killed replica dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterProfileRemoteHit pins the v1 surface's side of the
// sharded cache: the same profile request on every replica simulates
// each scenario once cluster-wide — after the first request has
// populated the ring owners' caches, later replicas resolve misses as
// remote hits, never as fresh simulations.
func TestClusterProfileRemoteHit(t *testing.T) {
	h := newClusterHarness(t, 3, nil)
	const body = `{"model":"resnet18","instance":"p3.2xlarge"}`

	totalSimulated := func() int64 {
		var n int64
		for _, s := range h.servers {
			n += s.profiler.Stats().Simulated
		}
		return n
	}

	var bodies [][]byte
	for i := range h.api {
		code, b := postJSON(t, h.api[i].URL+"/v1/profile", body)
		if code != http.StatusOK {
			t.Fatalf("profile on replica %d = %d: %s", i, code, b)
		}
		bodies = append(bodies, b)
		if i == 0 {
			continue
		}
		if !bytes.Equal(bodies[0], b) {
			t.Fatalf("replica %d profile bytes diverge from replica 0", i)
		}
	}

	var remote int64
	for _, s := range h.servers {
		st := s.profiler.Stats()
		remote += st.RemoteHits
		if res := audit.CheckStatsLive(st); !res.Ok() {
			t.Fatalf("replica stats violate conservation: %v", res.Strings())
		}
	}
	if remote == 0 {
		t.Fatal("no remote hits: the sharded cache never engaged")
	}

	// Replaying the request anywhere must add zero simulations: every
	// scenario is now in some replica's cache, reachable via the ring.
	before := totalSimulated()
	for i := range h.api {
		if code, _ := postJSON(t, h.api[i].URL+"/v1/profile", body); code != http.StatusOK {
			t.Fatalf("replayed profile on replica %d failed", i)
		}
	}
	if after := totalSimulated(); after != before {
		t.Fatalf("replay simulated %d extra scenarios cluster-wide", after-before)
	}
}
