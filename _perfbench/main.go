// Command perfbench is the repository's benchmark. It drives the stash
// layers from outside, through their public API, on three seeded
// workloads (suite-cold, profile-serve, jobs-mixed; see README.md) and
// prints the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one.
//
// Usage, from the repository root:
//
//	bash _perfbench/run.sh --workload suite-cold --seed 1 --seconds 60 --trace 0
//
// --workload all runs the three workloads in turn. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is non-zero when any correctness,
// cold-isolation or conservation check fails.
//
// Every round of a workload runs in a fresh child process (this binary
// with -round), so no round inherits a scenario cache, an interned
// string or a warmed heap from another.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var workloadNames = []string{"suite-cold", "profile-serve", "jobs-mixed"}

// roundResult is what one child process reports for one round.
type roundResult struct {
	SetupS    float64            `json:"setup_s"`
	ColdS     float64            `json:"cold_s"`
	AllocMB   float64            `json:"alloc_mb"`
	ColdMs    []float64          `json:"cold_ms,omitempty"`
	WarmMs    []float64          `json:"warm_ms,omitempty"`
	WarmEndS  []float64          `json:"warm_end_s,omitempty"` // when each warm operation ended, from the warm part's start
	WarmS     float64            `json:"warm_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Phases    map[string]float64 `json:"phases,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "suite-cold, profile-serve, jobs-mixed or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	// Child-process flags, set only by the parent.
	round := fs.String("round", "", "run one round of this workload (child process)")
	index := fs.Int("index", 0, "round index (child process)")
	t0 := fs.Int64("t0", 0, "parent's clock, unix ns, when the child was started")
	traced := fs.Bool("traced", false, "profile this round (child process)")
	setupOnly := fs.Bool("setup-only", false, "stop after set-up (child process)")
	serve := fs.String("serve", "", "serve stashd for a round of this workload (child process)")
	probe := fs.Bool("probe", false, "time the probed layers (child process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *serve != "" {
		return runServeChild(*serve, *traced)
	}
	if *round != "" {
		return runChild(*round, *seed, *index, time.Unix(0, *t0), *traced, *setupOnly)
	}
	if *probe {
		return runProbeChild(*seed)
	}
	var ws []string
	switch *workload {
	case "all":
		ws = workloadNames
	default:
		for _, w := range workloadNames {
			if w == *workload {
				ws = []string{w}
			}
		}
	}
	if ws == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s|all, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames, "|"))
		return 2
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(hostLine())
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		var res result
		var err error
		if *trace == 1 {
			res, err = tracedRun(w, *seed, time.Duration(*seconds)*time.Second)
		} else {
			res, err = untracedRun(w, *seed, time.Duration(*seconds)*time.Second)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(ws) > 1 {
				k = w + "." + k
			}
			out.Metrics[k] = v
		}
	}
	for k, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a round that failed leaves a metric without samples.
			out.Metrics[k] = metric{0, m.Unit}
			out.Correct = false
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// checkCheckout fails fast outside a repository checkout: the
// benchmark compares against files the repository ships.
func checkCheckout() error {
	for _, f := range []string{goldenPath, apiDocPath} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostLine records what the numbers were measured on, so results from
// different hosts are never compared.
func hostLine() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// spawn runs one child process of this binary and decodes the JSON
// result it prints on its last line. The child's stderr passes through.
func spawn(args ...string) (roundResult, error) {
	self, err := os.Executable()
	if err != nil {
		return roundResult{}, err
	}
	args = append(args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.Command(self, args...)
	cmd.SysProcAttr = diesWithParent()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if runErr != nil {
		return roundResult{}, fmt.Errorf("child %v: %w", args, runErr)
	}
	var r roundResult
	if err := json.Unmarshal(last, &r); err != nil {
		return roundResult{}, fmt.Errorf("child %v: bad result: %w", args, err)
	}
	return r, nil
}

// diesWithParent makes a child process exit if this one does, so a
// benchmark stopped from outside leaves no round running.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// setupSamples is how many set-ups an untraced run times at least
// (rounds included), so setup_s is a median even when few rounds fit.
const setupSamples = 11

// rounds runs child rounds of workload w until budget is spent (at
// least the given number), starting a round only when the slowest round so far still
// fits. traced alternates untraced and traced rounds, untraced first.
// Untraced, each round is followed by one set-up-only child, so the
// set-up samples it also returns spread over the run.
func rounds(w string, seed int64, budget time.Duration, least int, traced bool) ([]roundResult, []float64, error) {
	start := time.Now()
	var out []roundResult
	var setups []float64
	var slowest time.Duration
	for i := 0; ; i++ {
		step := slowest
		if traced {
			step = 2 * slowest
		}
		if len(out) >= least && (!traced || i%2 == 0) && time.Since(start)+step > budget {
			break
		}
		args := []string{"-round", w, "-seed", strconv.FormatInt(seed, 10), "-index", strconv.Itoa(i)}
		if traced && i%2 == 1 {
			args = append(args, "-traced")
		}
		t := time.Now()
		r, err := spawn(args...)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, r)
		if len(r.Errors) > 0 {
			break
		}
		if !traced {
			x, err := setupOnly(w, seed, 2000+i)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, x)
		}
		if d := time.Since(t); d > slowest {
			slowest = d
		}
	}
	return out, setups, nil
}

// setupOnly times set-up alone in a further child process.
func setupOnly(w string, seed int64, index int) (float64, error) {
	r, err := spawn("-round", w, "-seed", strconv.FormatInt(seed, 10), "-index", strconv.Itoa(index), "-setup-only")
	return r.SetupS, err
}

// minRounds is the fewest rounds an untraced run aggregates.
const minRounds = 3

// untracedRun measures the end-to-end metrics of one workload.
func untracedRun(w string, seed int64, budget time.Duration) (result, error) {
	rs, setup, err := rounds(w, seed, budget, minRounds, false)
	if err != nil {
		return result{}, err
	}
	res := verdict(w, rs)
	// cold_s and alloc_mb are medians over rounds. The warm metrics pool
	// every warm sample of the run: percentiles of all latencies, and the
	// median rate over windows of rateWindow operations. The host's speed
	// drifts by 10-20% over tens of seconds, so only medians of many
	// short samples taken across the whole run are steady.
	var cold, alloc []float64
	var coldMs, warmMs, rates []float64
	for _, r := range rs {
		setup = append(setup, r.SetupS)
		cold = append(cold, r.ColdS)
		alloc = append(alloc, r.AllocMB)
		coldMs = append(coldMs, r.ColdMs...)
		warmMs = append(warmMs, r.WarmMs...)
		rates = append(rates, windowRates(r.WarmEndS, rateWindow[w])...)
	}
	for i := len(setup); res.Correct && i < setupSamples; i++ {
		x, err := setupOnly(w, seed, 1000+i)
		if err != nil {
			return result{}, err
		}
		setup = append(setup, x)
	}
	values := map[string]float64{
		"setup_s":      median(setup),
		"cold_s":       median(cold),
		"alloc_mb":     median(alloc),
		"warm_p50_ms":  quantile(warmMs, 0.5),
		"warm_tail_ms": quantile(warmMs, warmTail[w]),
		"warm_rps":     median(rates),
	}
	res.Metrics = map[string]metric{}
	for name, unit := range endToEndUnits {
		res.Metrics[name] = metric{values[name], unit}
	}
	printEndToEnd(w, rs, res, setup, coldMs, warmMs, len(rates))
	return res, nil
}

// endToEndUnits are the metrics of an untraced run. Every workload
// reports all of them; what "cold" and "warm" are differs per workload
// (README.md):
//   - cold_s: wall time of the round's first-touch work — the cold
//     suite, the cold phase, the jobs' makespan;
//   - alloc_mb: bytes allocated during that work;
//   - warm_*: latency and rate of cache-hit operations — warm
//     experiment re-runs, the warm replay, the interactive client.
var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"cold_s":       "s",
	"alloc_mb":     "MB",
	"warm_p50_ms":  "ms",
	"warm_tail_ms": "ms",
	"warm_rps":     "1/s",
}

// warmTail fixes each workload's tail percentile, and minWarmSamples is
// the fewest warm samples one round yields: enough for ten beyond the
// percentile, so it never changes with the number of rounds that fit.
var (
	warmTail       = map[string]float64{"suite-cold": 0.9, "profile-serve": 0.99, "jobs-mixed": 0.99}
	minWarmSamples = map[string]int{"suite-cold": warmPasses * 26, "profile-serve": warmRequests, "jobs-mixed": interactiveRequests}
)

// rateWindow is how many consecutive warm operations one warm_rps
// sample spans: one warm pass of the registry on suite-cold.
var rateWindow = map[string]int{"suite-cold": 26, "profile-serve": 200, "jobs-mixed": 100}

// verdict folds the rounds' operation counts and check failures.
func verdict(w string, rs []roundResult) result {
	res := result{Correct: true}
	for i, r := range rs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, e := range r.Errors {
			res.Correct = false
			fmt.Printf("CHECK FAILED %s round %d: %s\n", w, i, e)
		}
	}
	if res.Attempted == 0 {
		res.Correct = false
		fmt.Printf("CHECK FAILED %s: no operation attempted\n", w)
	}
	return res
}

// printEndToEnd prints the run's metrics under the names a reader of
// the workload knows them by, each with its unit and sample count.
func printEndToEnd(w string, rs []roundResult, res result, setup, coldMs, warmMs []float64, windows int) {
	line := func(name string, v float64, unit string, n int, note string) {
		fmt.Printf("%-14s %-22s %12.4f %-4s n=%d %s\n", w, name, v, unit, n, note)
	}
	for i, r := range rs {
		fmt.Printf("%-14s round %d: setup %.4fs cold %.4fs alloc %.1fMB warm n=%d p50 %.3fms p90 %.3fms p99 %.3fms in %.3fs",
			w, i, r.SetupS, r.ColdS, r.AllocMB, len(r.WarmMs),
			quantile(r.WarmMs, 0.5), quantile(r.WarmMs, 0.9), quantile(r.WarmMs, 0.99), r.WarmS)
		fmt.Println()
	}
	rounds := len(rs)
	q := warmTail[w]
	tail := percentileName(q)
	line("setup_s", res.Metrics["setup_s"].Value, "s", len(setup), "median set-up")
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	line("failed_frac", frac, "", res.Attempted, "failed or refused / attempted")
	switch w {
	case "suite-cold":
		line("suite_s", res.Metrics["cold_s"].Value, "s", rounds, "median cold registry wall time")
		line("suite_alloc_mb", res.Metrics["alloc_mb"].Value, "MB", rounds, "median bytes allocated by the cold suite")
		line("suite_warm_p50_ms", res.Metrics["warm_p50_ms"].Value, "ms", len(warmMs), "one experiment served from the warm pool")
		line("suite_warm_"+tail+"_ms", res.Metrics["warm_tail_ms"].Value, "ms", len(warmMs), "")
		line("suite_warm_eps", res.Metrics["warm_rps"].Value, "1/s", windows, "warm experiments per second, median over passes")
	case "profile-serve":
		line("profile_cold_p50_ms", quantile(coldMs, 0.5), "ms", len(coldMs), "first-touch keys")
		line("profile_cold_"+percentileName(tailQuantile(len(coldMs)/rounds))+"_ms", quantile(coldMs, tailQuantile(len(coldMs)/rounds)), "ms", len(coldMs), "")
		line("profile_cold_phase_s", res.Metrics["cold_s"].Value, "s", rounds, "median wall time of the cold phase")
		line("profile_warm_p50_ms", res.Metrics["warm_p50_ms"].Value, "ms", len(warmMs), "cache-hit requests")
		line("profile_warm_"+tail+"_ms", res.Metrics["warm_tail_ms"].Value, "ms", len(warmMs), "")
		line("profile_warm_rps", res.Metrics["warm_rps"].Value, "1/s", windows, fmt.Sprintf("at %d clients, median over %d-request windows", runtime.NumCPU(), rateWindow[w]))
		line("alloc_mb", res.Metrics["alloc_mb"].Value, "MB", rounds, "median bytes allocated by the cold phase")
	case "jobs-mixed":
		line("jobs_makespan_s", res.Metrics["cold_s"].Value, "s", rounds, "median first submit to last terminal job")
		line("jobs_p50_s", quantile(coldMs, 0.5)/1000, "s", len(coldMs), "submit to terminal, per job")
		line("interactive_p50_ms", res.Metrics["warm_p50_ms"].Value, "ms", len(warmMs), "warm /v1/profile while jobs run")
		line("interactive_"+tail+"_ms", res.Metrics["warm_tail_ms"].Value, "ms", len(warmMs), "")
		line("interactive_rps", res.Metrics["warm_rps"].Value, "1/s", windows, fmt.Sprintf("one closed-loop client, median over %d-request windows", rateWindow[w]))
		line("alloc_mb", res.Metrics["alloc_mb"].Value, "MB", rounds, "median bytes allocated while jobs run")
	}
}

// tracedRun measures the per-layer metrics of one workload: untraced
// and traced rounds alternate (the pair gives trace.overhead_frac), and
// one probe child times the layers that a workload only reaches through
// others.
func tracedRun(w string, seed int64, budget time.Duration) (result, error) {
	rs, _, err := rounds(w, seed, budget, 2, true)
	if err != nil {
		return result{}, err
	}
	res := verdict(w, rs)
	var plain, traced []roundResult
	for i, r := range rs {
		if i%2 == 0 {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
	}
	probe, err := spawn("-probe", "-seed", strconv.FormatInt(seed, 10))
	if err != nil {
		return result{}, err
	}
	for _, e := range probe.Errors {
		res.Correct = false
		fmt.Printf("CHECK FAILED probe: %s\n", e)
	}
	layers := map[string][]float64{}
	phases := map[string][]float64{}
	var spans []span
	for _, r := range traced {
		for k, v := range r.Layers {
			layers[k] = append(layers[k], v)
		}
		for k, v := range r.Phases {
			phases[k] = append(phases[k], v)
		}
		spans = append(spans, r.Spans...)
	}
	res.Metrics = map[string]metric{}
	for _, m := range perLayerMetrics {
		var v float64
		if xs, ok := layers[m.name]; ok {
			v = median(xs)
		} else if x, ok := probe.Layers[m.name]; ok {
			v = x
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	cold := func(rs []roundResult) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.ColdS)
		}
		return median(xs)
	}
	if base := cold(plain); base > 0 {
		res.Metrics["trace.overhead_frac"] = metric{cold(traced)/base - 1, "ratio"}
	}
	if err := writeSpans(w, seed, append(spans, probe.Spans...)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-14s %-40s %14.6f %s\n", w, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	var ps []string
	for k := range phases {
		ps = append(ps, k)
	}
	sort.Strings(ps)
	for _, p := range ps {
		name := p
		if name == "" {
			name = "(no label: runtime)" // GC workers and other runtime goroutines
		}
		fmt.Printf("%-14s cpu_s by phase %-25s %14.6f s\n", w, name, median(phases[p]))
	}
	return res, nil
}

// spanDir is where traced runs leave their spans and raw profiles,
// inside the build directory the runner already uses.
const spanDir = ".bench_build/trace"

// writeSpans writes the run's spans as JSON lines when the run ends.
func writeSpans(w string, seed int64, spans []span) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/%s-seed%d.spans.jsonl", spanDir, w, seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%-14s spans: %d written to %s\n", w, len(spans), path)
	return nil
}

// emit prints a child's result as its last stdout line.
func emit(w io.Writer, r roundResult) error {
	for k, v := range r.Layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(r.Layers, k)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
