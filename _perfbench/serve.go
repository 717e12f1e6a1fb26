package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"stash/internal/api"
)

// The profile key space: 8 vision models x the 7 P2/P3 instances x 3
// batch sizes. All 168 keys answer 200.
var (
	visionModels = []string{"alexnet", "mobilenet_v2", "squeezenet1_1", "shufflenet_v2", "resnet18", "resnet34", "resnet50", "vgg11"}
	p2p3         = []string{"p2.xlarge", "p2.8xlarge", "p2.16xlarge", "p3.2xlarge", "p3.8xlarge", "p3.16xlarge", "p3.24xlarge"}
	batchSizes   = []int{16, 32, 64}
)

// docProfileKey is the key whose body docs/API.md pins.
var docProfileKey = profileKey{"resnet18", "p3.16xlarge", 32}

type profileKey struct {
	Model    string
	Instance string
	Batch    int
}

func (k profileKey) String() string { return fmt.Sprintf("%s/%s/%d", k.Model, k.Instance, k.Batch) }

func (k profileKey) body() []byte {
	b, err := json.Marshal(api.ProfileRequest{Model: k.Model, Instance: k.Instance, Batch: k.Batch})
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return b
}

// profileKeys returns every key of the key space in a fixed order.
func profileKeys() []profileKey {
	var keys []profileKey
	for _, m := range visionModels {
		for _, it := range p2p3 {
			for _, b := range batchSizes {
				keys = append(keys, profileKey{m, it, b})
			}
		}
	}
	return keys
}

// warmRequests is the length of profile-serve's warm replay: enough
// that a p99 has 60 samples beyond it in every round.
const warmRequests = 6000

// zipfRanks is the key-space index of each Zipf rank, hottest first.
// It is fixed: a response's cost depends on its key, so hot keys that
// changed with the seed would move the warm numbers by themselves. The
// ranks interleave models and instances, so no one model is hot.
var zipfRanks = func() []int {
	n := len(visionModels) * len(p2p3) * len(batchSizes)
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = (i * 59) % n // 59 is coprime to 168: a permutation
	}
	return ranks
}()

// zipfSequence draws n key indexes from a Zipf law (s = 1.1) over
// zipfRanks; the seed varies only the draw.
func zipfSequence(rng *rand.Rand, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(zipfRanks)-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = zipfRanks[z.Uint64()]
	}
	return seq
}

// coldOrder is the seeded order the cold phase requests the keys in.
func coldOrder(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// runProfileServe is the profile-serve workload: stashd POST
// /v1/profile over loopback, closed loop at nproc clients. The cold
// phase requests each of the 168 keys once, in a seeded order; the warm
// phase replays a seeded Zipf draw over the same keys, every request a
// cache hit.
func runProfileServe(r *round) error {
	keys := profileKeys()
	order := coldOrder(r.rng, len(keys))
	seq := zipfSequence(r.rng, warmRequests)
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		bodies[i] = k.body()
	}
	doc, err := docExample("profile-response")
	if err != nil {
		return err
	}
	s, err := startServer(r, r.nproc)
	if err != nil {
		return err
	}
	defer r.closeServer(s)
	m0, err := s.scrape()
	if err != nil {
		return err
	}
	if !r.ready() {
		return nil
	}

	if err := s.setPhase("cold"); err != nil {
		return err
	}
	if err := s.startTrace(r); err != nil {
		return err
	}
	cold := make([][]byte, len(keys))
	a0, err := s.alloc()
	if err != nil {
		return err
	}
	start := time.Now()
	r.res.ColdMs, _ = r.closedLoop(s, len(keys), func(i int) int { return order[i] }, bodies, "profile.cold", func(i int, body []byte) {
		cold[i] = body
	})
	r.res.ColdS = time.Since(start).Seconds()
	a1, err := s.alloc()
	if err != nil {
		return err
	}
	r.res.AllocMB = float64(a1-a0) / 1e6
	m1, err := s.scrape()
	if err != nil {
		return err
	}
	var mismatched atomic.Int64
	if err := s.setPhase("warm"); err != nil {
		return err
	}
	start = time.Now()
	r.res.WarmMs, r.res.WarmEndS = r.closedLoop(s, len(seq), func(i int) int { return seq[i] }, bodies, "profile.warm", func(i int, body []byte) {
		if !bytes.Equal(body, cold[i]) {
			mismatched.Add(1)
		}
	})
	r.res.WarmS = time.Since(start).Seconds()
	m2, err := s.scrape()
	if err != nil {
		return err
	}
	if err := s.stopTrace(r); err != nil {
		return err
	}
	r.apiLayers(m0, m2, m1.pool("profile").minus(m0.pool("profile")))

	coldPool, warmPool := m1.pool("profile").minus(m0.pool("profile")), m2.pool("profile").minus(m1.pool("profile"))
	r.checkf(coldPool.simulated >= float64(len(keys)),
		"cold phase simulated %v scenarios for %d unique keys: results were inherited", coldPool.simulated, len(keys))
	r.checkf(warmPool.simulated == 0, "warm phase simulated %v scenarios, want 0", warmPool.simulated)
	r.checkf(mismatched.Load() == 0, "%d warm bodies differ from their key's cold body", mismatched.Load())
	for i, k := range keys {
		if k == docProfileKey {
			r.checkf(sameJSON(cold[i], doc), "%s body differs from docs/API.md profile-response", k)
		}
	}
	r.checkConservation(m2)
	return nil
}

// closedLoop sends n POST /v1/profile requests from nproc clients, each
// waiting for its answer before sending the next. key(i) picks the key
// of request i; ok(k, body) sees each 200 body. It returns the
// latencies in milliseconds and when each request ended, in seconds
// from the loop's start, and counts every request as an operation.
func (r *round) closedLoop(s *server, n int, key func(int) int, bodies [][]byte, spanName string, ok func(int, []byte)) (lat, ends []float64) {
	lat, ends = make([]float64, n), make([]float64, n)
	start := time.Now()
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				k := key(i)
				t := time.Now()
				code, body, err := s.do(http.MethodPost, "/v1/profile", "", bodies[k])
				end := time.Now()
				lat[i] = ms(end.Sub(t))
				ends[i] = end.Sub(start).Seconds()
				r.tr.record(spanName, fmt.Sprintf("req-%s-%d", spanName, i), "", t, end)
				if err != nil || code != http.StatusOK {
					failed.Add(1)
					continue
				}
				ok(k, body)
			}
		}()
	}
	wg.Wait()
	r.res.Attempted += n
	r.res.Failed += int(failed.Load())
	return lat, ends
}
