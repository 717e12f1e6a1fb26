package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"stash/internal/sim"
)

// flowSpec is one flow of a randomized wave: its route as link indices,
// its size, its startup latency and its start offset within the wave.
type flowSpec struct {
	route   []int
	bytes   float64
	latency time.Duration
	start   time.Duration
}

// TestMemoMatchesFillOracle is a seeded property test of the rate memo
// on random topologies. Each trial replays one random wave of flows
// several times back to back, so later waves revisit earlier route sets
// and are solved from the memo. Every solved state is checked against a
// fresh network running progressive filling on the same ordered routes,
// and against the max-min fairness conditions directly.
func TestMemoMatchesFillOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var solves, hits, checks int
	for trial := 0; trial < 150; trial++ {
		s, h, c := memoTrial(t, rng)
		solves, hits, checks = solves+s, hits+h, checks+c
		if t.Failed() {
			t.Fatalf("trial %d failed", trial)
		}
	}
	// Three waves per trial: at least the later two should mostly hit.
	if hits*2 < solves {
		t.Errorf("memo answered %d of %d solves; the hit path is barely exercised", hits, solves)
	}
	t.Logf("%d solves, %d memo hits, %d states checked", solves, hits, checks)
}

func memoTrial(t *testing.T, rng *rand.Rand) (solves, hits, checks int) {
	const waves = 3
	e := sim.NewEngine()
	n := New(e)
	links := make([]*Link, 1+rng.Intn(12))
	for i := range links {
		links[i] = n.NewLink("l", (0.1+10*rng.Float64())*gb, 0)
	}
	specs := make([]flowSpec, 1+rng.Intn(40))
	for i := range specs {
		hops := 1 + rng.Intn(min(4, len(links)))
		specs[i] = flowSpec{
			route:   rng.Perm(len(links))[:hops],
			bytes:   (0.001 + rng.Float64()) * gb,
			latency: time.Duration(rng.Intn(4)) * time.Millisecond,
			start:   time.Duration(rng.Intn(30)) * time.Millisecond,
		}
	}
	order := rng.Perm(len(specs)) // start order within an instant

	var probe func()
	probe = func() {
		if n.dirty {
			// A same-instant solve is pending; look after it.
			e.Schedule(0, probe)
			return
		}
		checks++
		checkSolvedState(t, n)
	}
	wave, finished := 0, 0
	var startWave func()
	onDone := func() {
		probe()
		if finished++; finished == len(specs) && wave < waves {
			startWave()
		}
	}
	startWave = func() {
		wave++
		finished = 0
		for _, i := range order {
			s := specs[i]
			route := make([]*Link, len(s.route))
			for j, li := range s.route {
				route[j] = links[li]
			}
			e.Schedule(s.start, func() {
				n.StartFlowLatency(s.bytes, route, s.latency).Done().OnFire(onDone)
				e.Schedule(s.latency, probe)
			})
		}
	}
	startWave()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wave != waves || finished != len(specs) {
		t.Fatalf("ran %d waves, last one finished %d of %d flows", wave, finished, len(specs))
	}

	// Bytes are conserved: every link carried exactly its flows' bytes,
	// up to the per-flow completion residual.
	want := make([]float64, len(links))
	for _, s := range specs {
		for _, li := range s.route {
			want[li] += waves * s.bytes
		}
	}
	slack := float64(waves*len(specs)) * epsilonBytes
	for i, l := range links {
		if got := l.BytesCarried(); math.Abs(got-want[i]) > slack+1e-12*want[i] {
			t.Errorf("link %d carried %v bytes, want %v", i, got, want[i])
		}
	}
	return n.solves, n.memoHits, checks
}

// checkSolvedState checks the active flows' rates, which the network
// has just solved from its memo or by filling.
func checkSolvedState(t *testing.T, n *Network) {
	t.Helper()
	if len(n.flows) == 0 {
		return
	}
	// Oracle: a fresh network fills the same ordered routes.
	fresh := New(sim.NewEngine())
	for _, l := range n.links {
		fresh.NewLink(l.name, l.capacity, l.latency)
	}
	for i, f := range n.flows {
		route := make([]*Link, len(f.route))
		for j, l := range f.route {
			route[j] = fresh.links[l.id]
		}
		fresh.flows = append(fresh.flows, &Flow{route: route, index: i})
	}
	fresh.fill()
	for i, f := range n.flows {
		if got, want := f.rate, fresh.flows[i].rate; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("flow %d rate %v, fresh fill %v", i, got, want)
		}
	}

	load := make(map[*Link]float64)
	peak := make(map[*Link]float64)
	for _, f := range n.flows {
		for _, l := range f.route {
			load[l] += f.rate
			peak[l] = math.Max(peak[l], f.rate)
		}
	}
	for l, sum := range load {
		if sum > l.capacity*(1+1e-9) {
			t.Errorf("link %d carries %v > capacity %v", l.id, sum, l.capacity)
		}
	}
	for i, f := range n.flows {
		bottleneck := false
		for _, l := range f.route {
			if load[l] >= l.capacity*(1-1e-9) && f.rate >= peak[l]*(1-1e-9) {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			t.Errorf("flow %d at rate %v has no saturated link where its rate is maximal", i, f.rate)
		}
	}
}

// TestMemoSurvivesReset replays a run after Network.Reset: every solve
// of the replay is a memo hit and the flows finish at the same instants.
// A run in another start order after a Reset that drops flows mid-flight
// must match a fresh network's, so no key state leaks across Reset.
func TestMemoSurvivesReset(t *testing.T) {
	build := func() (*sim.Engine, *Network, [][]*Link) {
		e := sim.NewEngine()
		n := New(e)
		a := n.NewLink("a", 10*gb, time.Microsecond)
		b := n.NewLink("b", 4*gb, 0)
		c := n.NewLink("c", 6*gb, 0)
		return e, n, [][]*Link{{a}, {a, b}, {c}, {b, c}}
	}
	run := func(e *sim.Engine, n *Network, routes [][]*Link, order []int) []time.Duration {
		flows := make([]*Flow, len(routes))
		for _, i := range order {
			flows[i] = n.StartFlow(float64(i+1)*gb, routes[i])
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var ends []time.Duration
		for _, f := range flows {
			ends = append(ends, f.Duration())
		}
		return ends
	}
	forward, reverse := []int{0, 1, 2, 3}, []int{3, 2, 1, 0}

	e, n, routes := build()
	first := run(e, n, routes, forward)
	solves, hits := n.solves, n.memoHits
	e.Reset()
	n.Reset()
	second := run(e, n, routes, forward)
	if got, want := n.memoHits-hits, n.solves-solves; got != want || want == 0 {
		t.Errorf("replay after Reset: %d of %d solves hit the memo, want all", got, want)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("durations %v, then %v after Reset", first, second)
	}

	e.Reset()
	n.Reset()
	for _, r := range routes {
		n.StartFlow(gb, r)
	}
	if err := e.RunUntil(time.Millisecond); err != nil || n.ActiveFlows() != len(routes) {
		t.Fatalf("RunUntil: %v with %d active flows, want %d", err, n.ActiveFlows(), len(routes))
	}
	e.Reset()
	n.Reset()
	got := run(e, n, routes, reverse)
	fe, fn, froutes := build()
	if want := run(fe, fn, froutes, reverse); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("reordered run after Reset: durations %v, fresh network %v", got, want)
	}
}

// TestMemoBounded checks the memo is cleared when it reaches
// maxMemoEntries rather than growing with every new route set.
func TestMemoBounded(t *testing.T) {
	n := New(sim.NewEngine())
	peak := 0
	for i := 0; i <= maxMemoEntries; i++ {
		l := n.NewLink("l", gb, 0)
		n.flows = []*Flow{{route: []*Link{l}}}
		n.keyed = 0 // n.flows was replaced, not appended to
		n.solve()
		peak = max(peak, len(n.memo))
	}
	if peak != maxMemoEntries || len(n.memo) != 1 {
		t.Errorf("memo peaked at %d entries and ended with %d, want %d then 1 (cleared, then the new set)",
			peak, len(n.memo), maxMemoEntries)
	}
}

// TestStartFlowRejectsForeignLink guards the memo key: link ids are only
// unique within one network.
func TestStartFlowRejectsForeignLink(t *testing.T) {
	e := sim.NewEngine()
	n, other := New(e), New(e)
	n.NewLink("mine", gb, 0)
	foreign := other.NewLink("theirs", gb, 0)
	defer func() {
		if recover() == nil {
			t.Error("StartFlow over another network's link did not panic")
		}
	}()
	n.StartFlow(gb, []*Link{foreign})
}
