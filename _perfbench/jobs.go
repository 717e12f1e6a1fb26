package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"stash/internal/api"
)

// The jobs-mixed job set, in submission order. Work and order are
// fixed, because with two job workers the order sets the makespan; the
// seed picks the tenant that submits first and draws the interactive
// sequence.
// The recommend models are disjoint from the interactive model, so no
// sweep is served by the pre-warm.
var (
	// docRecommend is the request whose body docs/API.md pins.
	docRecommend    = api.RecommendRequest{Model: "vgg11", Batch: 32, Families: []string{"P3"}, MaxEpochSeconds: 2400}
	experimentSlice = []string{"fig5", "fig11", "fig13", "ablate-bucket", "p4-preview"}
	recommends      = []api.RecommendRequest{
		docRecommend,
		{Model: "resnet50", Batch: 32},
		{Model: "mobilenet_v2", Batch: 32},
		{Model: "alexnet", Batch: 32},
	}
	tenants = []string{"alpha", "beta"}

	// interactiveKeys are pre-warmed during set-up; the first is the
	// key whose body docs/API.md pins.
	interactiveKeys = []profileKey{
		docProfileKey,
		{"resnet18", "p3.8xlarge", 32},
		{"resnet18", "p2.8xlarge", 32},
		{"resnet18", "p3.2xlarge", 64},
	}
)

// interactiveRequests is how many requests the interactive client
// sends in a round: enough for a p99 with 20 samples beyond it.
const interactiveRequests = 2000

// pollInterval is how often the job client polls a live job's status;
// it bounds the resolution of the client-timed job metrics.
const pollInterval = 20 * time.Millisecond

// jobDeadline bounds how long the job client waits for the jobs, so a
// stuck job fails the run instead of hanging it.
const jobDeadline = 120 * time.Second

type jobRun struct {
	req       api.JobCreateRequest
	tenant    string
	id        string
	submitted time.Time
	running   time.Time // first poll that saw the job running
	settled   time.Time // first poll that saw the job terminal
	state     string
}

// runJobsMixed is the jobs-mixed workload: two tenants submit /v2 jobs
// (cold recommend sweeps and one experiments job over a registry slice)
// while one interactive client sends warm /v1/profile requests on keys
// pre-warmed during set-up.
func runJobsMixed(r *round) error {
	jobs := []*jobRun{{req: api.JobCreateRequest{Type: "experiments", Experiments: &api.ExperimentsJobSpec{IDs: experimentSlice}}}}
	for i := range recommends {
		jobs = append(jobs, &jobRun{req: api.JobCreateRequest{Type: "recommend", Recommend: &recommends[i]}})
	}
	// Tenants alternate, so both always submit; the seed picks which
	// goes first.
	first := r.rng.Intn(len(tenants))
	for i, j := range jobs {
		j.tenant = tenants[(first+i)%len(tenants)]
	}
	warmKeys := interactiveKeys
	docProfile, err := docExample("profile-response")
	if err != nil {
		return err
	}
	docRec, err := docExample("recommend-response")
	if err != nil {
		return err
	}

	// One connection for the interactive client, the rest for the
	// job client: nproc in all.
	s, err := startServer(r, max(1, r.nproc-1))
	if err != nil {
		return err
	}
	defer r.closeServer(s)
	interactive := newClient(s.base, 1)
	defer interactive.hc.CloseIdleConnections()
	pick := newRand(r.rng.Int63())
	warmBodies := make([][]byte, len(warmKeys))
	for i, k := range warmKeys {
		code, body, err := s.do(http.MethodPost, "/v1/profile", "", k.body())
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("pre-warm %s: %d %v", k, code, err)
		}
		warmBodies[i] = body
	}
	m0, err := s.scrape()
	if err != nil {
		return err
	}
	if !r.ready() {
		return nil
	}

	if err := s.setPhase("jobs"); err != nil {
		return err
	}
	if err := s.startTrace(r); err != nil {
		return err
	}
	a0, err := s.alloc()
	if err != nil {
		return err
	}
	start := time.Now()
	var wg sync.WaitGroup
	var interactiveErr error
	mismatched := 0
	// The interactive user waits for each answer before sending the next
	// request (closed loop). An open loop at a rate this host sustains
	// alone falls behind once the job workers hold both processors, and
	// its backlog then grows until the jobs end. The request count is
	// fixed, so the bytes it allocates do not vary with its speed; at
	// the rates seen it ends while the jobs still run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < interactiveRequests; i++ {
			t := time.Now()
			k := pick.Intn(len(warmKeys))
			code, body, err := interactive.do(http.MethodPost, "/v1/profile", "", warmKeys[k].body())
			end := time.Now()
			r.tr.record("interactive.profile", fmt.Sprintf("int-%d", i), "", t, end)
			r.res.WarmMs = append(r.res.WarmMs, ms(end.Sub(t)))
			r.res.WarmEndS = append(r.res.WarmEndS, end.Sub(start).Seconds())
			if err != nil || code != http.StatusOK {
				interactiveErr = fmt.Errorf("interactive %s: %d %v", warmKeys[k], code, err)
				continue
			}
			if !bytes.Equal(body, warmBodies[k]) {
				mismatched++
			}
		}
		r.res.WarmS = time.Since(start).Seconds()
	}()
	jobErr := r.driveJobs(s, jobs, start)
	var last time.Time
	for _, j := range jobs {
		if j.settled.After(last) {
			last = j.settled
		}
	}
	r.res.ColdS = last.Sub(start).Seconds()
	wg.Wait()
	if jobErr != nil {
		return jobErr
	}
	a1, err := s.alloc()
	if err != nil {
		return err
	}
	r.res.AllocMB = float64(a1-a0) / 1e6
	m1, err := s.scrape()
	if err != nil {
		return err
	}
	if err := s.stopTrace(r); err != nil {
		return err
	}
	r.jobLayers(jobs, start)

	r.res.Attempted += len(r.res.WarmMs) + len(jobs)
	if interactiveErr != nil {
		r.res.Failed++
		r.res.Errors = append(r.res.Errors, interactiveErr.Error())
	}
	r.checkf(mismatched == 0, "%d interactive bodies differ from their pre-warm body", mismatched)
	r.checkf(sameJSON(warmBodies[0], docProfile), "%s body differs from docs/API.md profile-response", docProfileKey)
	for _, j := range jobs {
		r.res.ColdMs = append(r.res.ColdMs, ms(j.settled.Sub(j.submitted)))
		if j.state != "done" {
			r.res.Failed++
			r.res.Errors = append(r.res.Errors, fmt.Sprintf("job %s (%s) ended %s", j.id, j.req.Type, j.state))
			continue
		}
		if err := r.checkJobResult(s, j, docRec); err != nil {
			return err
		}
	}
	prof, exp := m1.pool("profile").minus(m0.pool("profile")), m1.pool("experiments").minus(m0.pool("experiments"))
	r.checkf(m0.pool("experiments").requests == 0, "experiments pool was not empty before the jobs: results were inherited")
	r.checkf(prof.simulated >= float64(len(recommends)), "recommend sweeps simulated %v scenarios for %d models: results were inherited", prof.simulated, len(recommends))
	r.checkf(exp.simulated >= float64(len(experimentSlice)), "experiments job simulated %v scenarios for %d experiments: results were inherited", exp.simulated, len(experimentSlice))
	m2, err := s.scrape()
	if err != nil {
		return err
	}
	r.checkConservation(m2)
	// Server times include the result and /v1 fetches of the checks.
	r.apiLayers(m0, m2, prof.plus(exp))
	return nil
}

// driveJobs submits every job, then polls them until all are terminal,
// recording when each was first seen running and terminal.
func (r *round) driveJobs(s *server, jobs []*jobRun, start time.Time) error {
	for _, j := range jobs {
		body, err := json.Marshal(j.req)
		if err != nil {
			return err
		}
		j.submitted = time.Now()
		code, resp, err := s.do(http.MethodPost, "/v2/jobs", j.tenant, body)
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("submit %s job: %d %v %s", j.req.Type, code, err, resp)
		}
		var st api.JobStatus
		if err := json.Unmarshal(resp, &st); err != nil {
			return fmt.Errorf("submit %s job: %w", j.req.Type, err)
		}
		j.id = st.ID
		r.tr.record("job.submit", j.id, "job", j.submitted, time.Now())
	}
	deadline := start.Add(jobDeadline)
	for live := len(jobs); live > 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs still live after %v", live, jobDeadline)
		}
		time.Sleep(pollInterval)
		for _, j := range jobs {
			if !j.settled.IsZero() {
				continue
			}
			code, resp, err := s.do(http.MethodGet, "/v2/jobs/"+j.id, j.tenant, nil)
			now := time.Now()
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("poll %s: %d %v", j.id, code, err)
			}
			var st api.JobStatus
			if err := json.Unmarshal(resp, &st); err != nil {
				return fmt.Errorf("poll %s: %w", j.id, err)
			}
			switch st.State {
			case "queued":
			case "running":
				if j.running.IsZero() {
					j.running = now
				}
			default:
				if j.running.IsZero() {
					j.running = now // ran entirely between two polls
				}
				j.settled, j.state = now, st.State
				live--
				r.tr.record("job", j.id, "", j.submitted, j.settled)
				r.tr.record("job.queued", j.id, "job", j.submitted, j.running)
				r.tr.record("job.running", j.id, "job", j.running, j.settled)
			}
		}
	}
	return nil
}

// jobLayers sets the client-timed job metrics of a traced round.
func (r *round) jobLayers(jobs []*jobRun, start time.Time) {
	var waits, runs []float64
	finish := map[string]time.Duration{}
	for _, j := range jobs {
		waits = append(waits, j.running.Sub(j.submitted).Seconds())
		runs = append(runs, j.settled.Sub(j.running).Seconds())
		if d := j.settled.Sub(start); d > finish[j.tenant] {
			finish[j.tenant] = d
		}
	}
	sort.Float64s(waits)
	sort.Float64s(runs)
	r.layer("api.job_queue_wait_s.p50", median(waits))
	r.layer("api.job_queue_wait_s.max", waits[len(waits)-1])
	r.layer("api.job_run_s.p50", median(runs))
	r.layer("api.job_run_s.max", runs[len(runs)-1])
	lo, hi := time.Duration(0), time.Duration(0)
	for _, d := range finish {
		if lo == 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo > 0 {
		r.layer("api.tenant_finish_ratio", float64(hi)/float64(lo))
	}
}

// checkJobResult fetches a settled job's result and checks it is
// byte-identical to the /v1 response for the same request.
func (r *round) checkJobResult(s *server, j *jobRun, docRec []byte) error {
	t := time.Now()
	code, got, err := s.do(http.MethodGet, "/v2/jobs/"+j.id+"/result", j.tenant, nil)
	r.tr.record("job.result", j.id, "job", t, time.Now())
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("result %s: %d %v", j.id, code, err)
	}
	switch j.req.Type {
	case "recommend":
		body, err := json.Marshal(j.req.Recommend)
		if err != nil {
			return err
		}
		code, want, err := s.do(http.MethodPost, "/v1/recommend", j.tenant, body)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("v1 recommend %s: %d %v", j.req.Recommend.Model, code, err)
		}
		r.checkf(bytes.Equal(got, want), "job %s result differs from /v1/recommend for %s", j.id, j.req.Recommend.Model)
		if j.req.Recommend.Model == docRecommend.Model {
			r.checkf(sameJSON(got, docRec), "%s recommend body differs from docs/API.md recommend-response", docRecommend.Model)
		}
	case "experiments":
		var res struct {
			Experiments []json.RawMessage `json:"experiments"`
		}
		if err := json.Unmarshal(got, &res); err != nil {
			return fmt.Errorf("result %s: %w", j.id, err)
		}
		r.checkf(len(res.Experiments) == len(experimentSlice), "job %s returned %d experiments, want %d", j.id, len(res.Experiments), len(experimentSlice))
		for i, id := range experimentSlice {
			code, want, err := s.do(http.MethodGet, "/v1/experiments/"+id, j.tenant, nil)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("v1 experiment %s: %d %v", id, code, err)
			}
			r.checkf(i < len(res.Experiments) && bytes.Equal(res.Experiments[i], bytes.TrimRight(want, "\n")),
				"job %s: %s differs from /v1/experiments/%s", j.id, id, id)
		}
	}
	return nil
}
