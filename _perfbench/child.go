package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// round is one child process's round of a workload.
type round struct {
	workload  string
	index     int
	rng       *rand.Rand
	nproc     int
	t0        time.Time
	setupOnly bool
	tr        *tracer // nil on untraced rounds
	res       roundResult
	clientCPU float64 // load process CPU seconds when a traced server round started
}

func runChild(w string, seed int64, index int, t0 time.Time, traced, setupOnly bool) int {
	r := &round{
		workload:  w,
		index:     index,
		rng:       newRand(seed*1_000_003 + int64(index)),
		nproc:     runtime.NumCPU(),
		t0:        t0,
		setupOnly: setupOnly,
	}
	if traced {
		r.tr = &tracer{workload: w, origin: t0, dir: spanDir + "/profiles"}
	}
	var err error
	switch w {
	case "suite-cold":
		err = runSuite(r)
	case "profile-serve":
		err = runProfileServe(r)
	case "jobs-mixed":
		err = runJobsMixed(r)
	default:
		err = fmt.Errorf("unknown workload %q", w)
	}
	if err != nil {
		r.res.Errors = append(r.res.Errors, err.Error())
	}
	if err := emit(os.Stdout, r.res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// ready ends set-up: it collects garbage so every round's timed part
// starts from the same heap, records setup_s (measured from the parent
// starting this process) and reports whether the round goes on.
func (r *round) ready() bool {
	runtime.GC()
	r.res.SetupS = time.Since(r.t0).Seconds()
	return !r.setupOnly
}

// checkf records a failed correctness check unless ok.
func (r *round) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
	}
}

// stopTrace ends the profiles of a traced round that runs its layers
// in this process, and stores its layer metrics and spans.
func (r *round) stopTrace() error {
	if r.tr == nil {
		return nil
	}
	layers, phases, err := r.tr.stop(r.profileName())
	if err != nil {
		return err
	}
	r.res.Layers, r.res.Phases = layers, phases
	r.res.Spans = r.tr.spans
	return nil
}

// profileName names the round's raw profile file.
func (r *round) profileName() string { return fmt.Sprintf("%s-r%d", r.workload, r.index) }

// layer sets one per-layer metric of a traced round.
func (r *round) layer(name string, v float64) {
	if r.tr == nil {
		return
	}
	if r.res.Layers == nil {
		r.res.Layers = map[string]float64{}
	}
	r.res.Layers[name] = v
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// client sends requests to one server over at most a fixed number of
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) client {
	return client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

// do sends one request and reads the whole response.
func (s client) do(method, path, tenant string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("X-Stash-Tenant", tenant)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// prom is one /metrics scrape: series (name plus labels) to value.
type prom map[string]float64

func (s *server) scrape() (prom, error) {
	code, body, err := s.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", code)
	}
	return parseProm(body)
}

func parseProm(body []byte) (prom, error) {
	p := prom{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad /metrics line %q: %w", line, err)
		}
		p[line[:i]] = v
	}
	return p, sc.Err()
}

// sum adds every series of a family whose labels contain all of want
// (each a `key="value"` string).
func (p prom) sum(family string, want ...string) float64 {
	var t float64
	for k, v := range p {
		name, labels, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				ok = false
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// poolStats are one pool's scheduler counters from /metrics.
type poolStats struct{ requests, simulated, hits, remote, waits, cancelled float64 }

func (p prom) pool(name string) poolStats {
	l := fmt.Sprintf("pool=%q", name)
	return poolStats{
		requests:  p.sum("stashd_scenario_requests_total", l),
		simulated: p.sum("stashd_scenarios_simulated_total", l),
		hits:      p.sum("stashd_scenario_cache_hits_total", l),
		remote:    p.sum("stashd_scenario_remote_hits_total", l),
		waits:     p.sum("stashd_scenario_singleflight_waits_total", l),
		cancelled: p.sum("stashd_scenario_cancelled_total", l),
	}
}

func (a poolStats) minus(b poolStats) poolStats {
	return poolStats{a.requests - b.requests, a.simulated - b.simulated, a.hits - b.hits,
		a.remote - b.remote, a.waits - b.waits, a.cancelled - b.cancelled}
}

func (a poolStats) plus(b poolStats) poolStats {
	return poolStats{a.requests + b.requests, a.simulated + b.simulated, a.hits + b.hits,
		a.remote + b.remote, a.waits + b.waits, a.cancelled + b.cancelled}
}

func (a poolStats) balance() float64 {
	return a.requests - (a.simulated + a.hits + a.remote + a.waits + a.cancelled)
}

// checkConservation checks, on a quiescent server, that both scenario
// pools and every tenant's job counters conserve.
func (r *round) checkConservation(p prom) {
	for _, pool := range []string{"profile", "experiments"} {
		st := p.pool(pool)
		r.checkf(st.balance() == 0, "pool %s does not conserve: %+v", pool, st)
	}
	for k, accepted := range p {
		tenant, ok := strings.CutPrefix(k, "stashd_jobs_accepted_total{")
		if !ok {
			continue
		}
		l := strings.TrimSuffix(tenant, "}")
		settled := p.sum("stashd_jobs_terminal_total", l)
		live := p.sum("stashd_jobs_queued", l) + p.sum("stashd_jobs_running", l)
		r.checkf(live == 0, "jobs still live on a quiescent server (%s): %v", l, live)
		r.checkf(accepted == settled+live, "job counters do not conserve (%s): accepted %v, terminal %v, live %v", l, accepted, settled, live)
	}
	r.checkf(p.sum("stashd_inflight_requests") <= 1, "requests in flight on a quiescent server") // the scrape itself
}

// apiLayers sets the api.* and core.* per-layer metrics from two
// scrapes bracketing a round's timed part.
func (r *round) apiLayers(before, after prom, core poolStats) {
	if r.tr == nil {
		return
	}
	for _, ep := range []string{"profile", "recommend", "job-create", "job-get", "job-result"} {
		l := fmt.Sprintf("endpoint=%q", ep)
		n := after.sum("stashd_request_duration_seconds_count", l) - before.sum("stashd_request_duration_seconds_count", l)
		if n > 0 {
			s := after.sum("stashd_request_duration_seconds_sum", l) - before.sum("stashd_request_duration_seconds_sum", l)
			r.layer("api.server_ms."+ep, s/n*1000)
		}
	}
	r.layer("api.overloaded", after.sum("stashd_requests_total", `code="503"`)-before.sum("stashd_requests_total", `code="503"`))
	r.coreLayers(core)
}

func (r *round) coreLayers(st poolStats) {
	r.layer("core.requests", st.requests)
	r.layer("core.simulated", st.simulated)
	r.layer("core.cache_hits", st.hits)
	r.layer("core.waits", st.waits)
	if st.requests > 0 {
		r.layer("core.hit_ratio", st.hits/st.requests)
	}
}

// Files of the repository the benchmark checks outputs against.
const (
	goldenPath = "experiments_output.txt"
	apiDocPath = "docs/API.md"
)

var verifyMarker = regexp.MustCompile(`<!--\s*verify:([a-z0-9-]+)\s*-->`)

// docExample returns the fenced block that follows a docs/API.md
// `<!-- verify:name -->` marker.
func docExample(name string) ([]byte, error) {
	data, err := os.ReadFile(apiDocPath)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		m := verifyMarker.FindStringSubmatch(line)
		if m == nil || m[1] != name {
			continue
		}
		j := i + 1
		for j < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[j]), "```") {
			j++
		}
		var body []string
		for j++; j < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[j]), "```"); j++ {
			body = append(body, lines[j])
		}
		return []byte(strings.Join(body, "\n")), nil
	}
	return nil, fmt.Errorf("%s: no verify:%s block", apiDocPath, name)
}

// sameJSON reports whether two JSON documents are equal once object key
// order and whitespace are disregarded (the docs pretty-print bodies).
func sameJSON(a, b []byte) bool {
	canon := func(x []byte) (string, bool) {
		var v any
		if err := json.Unmarshal(x, &v); err != nil {
			return "", false
		}
		out, err := json.Marshal(v)
		return string(out), err == nil
	}
	ca, oka := canon(a)
	cb, okb := canon(b)
	return oka && okb && ca == cb
}
