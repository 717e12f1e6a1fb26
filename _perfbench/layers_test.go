package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfChargesInnermostRepoFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		// A stdlib call inside the solver counts as the solver's.
		{[]string{"time.Duration.Seconds", "stash/internal/simnet.(*Network).recompute", "stash/internal/sim.(*Engine).Run"}, "simnet"},
		{[]string{"runtime.mallocgc", "stash/internal/sim.(*Engine).schedule", "stash/internal/train.Run"}, "sim"},
		{[]string{"stash/internal/core.ForEach[...].func1", "runtime.goexit"}, "core"},
		{[]string{"encoding/json.Marshal", "stash/internal/api.writeJSON", "main.(*round).label.func1", "net/http.(*conn).serve"}, "api"},
		{[]string{"net/http.(*Client).Do", "main.client.do", "main.(*round).closedLoop.func1"}, "bench"},
		{[]string{"stash/internal/audit.Quick"}, "internal_misc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"syscall.Syscall", "net/http.(*persistConn).readLoop"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// spin burns CPU in this package so its samples are charged to bench.
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestCPUBucketsSumToProfileTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "spin"), func(_ context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	p, err := attributeCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.total <= 0 {
		t.Fatal("profile has no samples")
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += p.byBucket[b]
	}
	for b := range p.byBucket {
		if !contains(cpuBuckets, b) {
			t.Errorf("sample charged to unreported bucket %q", b)
		}
	}
	if math.Abs(sum-p.total) > 1e-9 {
		t.Errorf("buckets sum to %v, profile total %v", sum, p.total)
	}
	if p.byBucket["bench"] < p.total/2 {
		t.Errorf("bench got %v of %v, want most of a profile that spins in this package", p.byBucket["bench"], p.total)
	}
	if p.byPhase["spin"] < p.total/2 {
		t.Errorf("phase label lost: %v", p.byPhase)
	}
}

func TestAllocAttribution(t *testing.T) {
	before := takeAllocSnapshot()
	sink = make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	got := attributeAllocs(before, takeAllocSnapshot(), 512<<10)
	if got["bench"] < 8 { // 16 MB allocated in this package
		t.Errorf("bench allocations = %.1f MB, want about 16", got["bench"])
	}
}

var sink [][]byte

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, the metric list and
// the metric-name charset in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, x := range append(append([]m(nil), b.EndToEnd...), b.PerLayer...) {
		if !metricNameRx.MatchString(x.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", x.Name)
		}
		if seen[x.Name] {
			t.Errorf("metric %q listed twice", x.Name)
		}
		seen[x.Name] = true
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, x := range perLayerMetrics {
		if b.PerLayer[i].Name != x.name || b.PerLayer[i].Unit != x.unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark reports %s (%s)", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, x.name, x.unit)
		}
	}
	for _, x := range b.EndToEnd {
		if _, ok := endToEndUnits[x.Name]; !ok {
			t.Errorf("end_to_end metric %q is not reported", x.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEndUnits))
	}
	// BENCHMARK.json lists the workloads the benchmark is gated on, a
	// subset of those it runs.
	if len(b.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(b.Workloads))
	}
	var ws []string
	for _, w := range b.Workloads {
		if !contains(workloadNames, w.Name) || contains(ws, w.Name) || !metricNameRx.MatchString(w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark, listed twice or badly named", w.Name)
		}
		ws = append(ws, w.Name)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for name, want := range map[string]bool{
		"api.server_ms.job-create": true,
		"experiments.run_s.fig4":   true,
		"runtime.gc_cpu_s":         true,
		"p99.9":                    true,
		".hidden":                  false,
		"a b":                      false,
		"api/latency":              false,
		"":                         false,
	} {
		if got := metricNameRx.MatchString(name); got != want {
			t.Errorf("metricNameRx(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for n, want := range map[int]float64{10: 0.5, 104: 0.9, 999: 0.9, 1000: 0.99, 6000: 0.99, 10000: 0.999} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
	for w, q := range warmTail {
		if tailQuantile(minWarmSamples[w]) < q {
			t.Errorf("%s: %d warm samples per round cannot carry a %v tail", w, minWarmSamples[w], q)
		}
	}
}

func TestNormalizeSuite(t *testing.T) {
	a := "# Fig 5: x (fig5, simulated in 1.687s)\n\nrow\n# scheduler: 996 scenario requests (wall 7s)\n"
	b := "# Fig 5: x (fig5, simulated in 12ms)\n\nrow\n"
	if normalizeSuite(a) != normalizeSuite(b) {
		t.Errorf("normalizeSuite left run-dependent text:\n%q\n%q", normalizeSuite(a), normalizeSuite(b))
	}
	if normalizeSuite(b) == normalizeSuite("# Fig 5: x (fig5, simulated in 12ms)\n\nrow2\n") {
		t.Error("normalizeSuite hid a table difference")
	}
}

func TestWindowRates(t *testing.T) {
	// Ends out of order, as concurrent clients record them; the last
	// window is incomplete and dropped.
	got := windowRates([]float64{0.5, 0.25, 1, 2, 3}, 2)
	want := []float64{2 / 0.5, 2 / 1.5}
	if len(got) != len(want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("windowRates = %v, want %v", got, want)
		}
	}
}
