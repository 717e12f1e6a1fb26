package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// Layer attribution. Every CPU or allocation sample is charged to the
// innermost frame of its stack that belongs to a repository package:
// a stash/internal/<layer> package or this benchmark's own package
// (main, charged as "bench"). Standard-library and runtime frames
// therefore count toward their repository caller — time.Duration.Seconds
// called from the simnet solver is simnet time. A sample with no
// repository frame is a GC worker ("runtime.gc") or "other".

// reportedLayers are the internal packages with their own bucket; any
// other stash/internal package is charged to "internal_misc".
var reportedLayers = []string{
	"sim", "simnet", "collective", "train", "pipeline", "core",
	"experiments", "report", "api", "dnn", "cloud", "topo", "workload",
}

// cpuBuckets and allocBuckets are every bucket a profile can be charged
// to, in report order. Their totals equal the profile's totals.
var (
	cpuBuckets   = append(append([]string(nil), reportedLayers...), "internal_misc", "bench", "runtime.gc", "other")
	allocBuckets = append(append([]string(nil), reportedLayers...), "internal_misc", "bench", "other")
)

const internalPrefix = "stash/internal/"

// layerOf returns the bucket for one stack, given its function names
// innermost first.
func layerOf(funcs []string) string {
	gcWorker := false
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range reportedLayers {
				if l == pkg {
					return l
				}
			}
			return "internal_misc"
		}
		// The benchmark is package main; its tests see it by import path.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "stash/perfbench.") {
			return "bench"
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			gcWorker = true
		}
	}
	if gcWorker {
		return "runtime.gc"
	}
	return "other"
}

// cpuMetricName and allocMetricName map a bucket to its per-layer
// metric name.
func cpuMetricName(bucket string) string {
	switch bucket {
	case "bench":
		return "bench.self_cpu_s"
	case "runtime.gc":
		return "runtime.gc_cpu_s"
	case "other":
		return "other.cpu_s"
	}
	return bucket + ".self_cpu_s"
}

func allocMetricName(bucket string) string { return bucket + ".alloc_mb" }

// metricNameRx is the charset every metric name must use.
var metricNameRx = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// cpuProfile is the part of a pprof CPU profile attribution needs.
type cpuProfile struct {
	// total is the profile's CPU time in seconds.
	total float64
	// byBucket and byPhase split total by layer bucket and by the
	// sample's "phase" label ("" when unlabelled).
	byBucket map[string]float64
	byPhase  map[string]float64
}

// attributeCPU decodes a gzipped pprof CPU profile and charges each
// sample's CPU time to its layer bucket.
func attributeCPU(gz []byte) (cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuProfile{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return cpuProfile{}, err
	}
	vi := len(p.sampleTypes) - 1 // CPU profiles carry [samples, cpu nanoseconds]
	if vi < 0 || p.strings[p.sampleTypes[vi]] != "cpu" {
		return cpuProfile{}, errors.New("cpu profile: no cpu sample type")
	}
	out := cpuProfile{byBucket: map[string]float64{}, byPhase: map[string]float64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		var funcs []string
		for _, loc := range s.locations {
			for _, fid := range p.locations[loc] {
				funcs = append(funcs, p.strings[p.functions[fid]])
			}
		}
		out.total += sec
		out.byBucket[layerOf(funcs)] += sec
		out.byPhase[s.labels["phase"]] += sec
	}
	return out, nil
}

// profile is a decoded pprof profile reduced to sample stacks.
type profile struct {
	sampleTypes []int64 // string-table index of each sample type
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
	labels    map[string]string
}

// decodeProfile parses the protobuf encoding of a pprof profile
// (github.com/google/pprof/proto/profile.proto), keeping only the
// fields attribution uses.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	type label struct{ key, str int64 }
	var rawLabels [][]label
	err := eachField(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(sub, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s profSample
			var ls []label
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, v, sub)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, sub); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var l label
					err := eachField(sub, func(f int, v uint64, _ []byte) error {
						switch f {
						case 1:
							l.key = int64(v)
						case 2:
							l.str = int64(v)
						}
						return nil
					})
					ls = append(ls, l)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			rawLabels = append(rawLabels, ls)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return eachField(sub, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fids
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(p.strings)) {
			return "", fmt.Errorf("decode profile: string index %d out of range", i)
		}
		return p.strings[i], nil
	}
	for _, name := range p.functions {
		if _, err := str(name); err != nil {
			return nil, err
		}
	}
	for _, st := range p.sampleTypes {
		if _, err := str(st); err != nil {
			return nil, err
		}
	}
	for i, ls := range rawLabels {
		for _, l := range ls {
			k, err := str(l.key)
			if err != nil {
				return nil, err
			}
			v, err := str(l.str)
			if err != nil {
				return nil, err
			}
			if p.samples[i].labels == nil {
				p.samples[i].labels = map[string]string{}
			}
			p.samples[i].labels[k] = v
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value per field (sub == nil) or packed into one length-delimited run.
func appendVarints(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// allocSnapshot is the cumulative allocation profile keyed by stack.
type allocSnapshot map[[32]uintptr]runtime.MemProfileRecord

// takeAllocSnapshot forces a GC so the runtime publishes every
// allocation made so far, then copies the allocation profile.
func takeAllocSnapshot() allocSnapshot {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		snap[r.Stack0] = r
	}
	return snap
}

// attributeAllocs charges the bytes allocated between two snapshots to
// layer buckets, in MB, scaling each stack's sampled bytes the way
// pprof does for the sampling rate in effect.
func attributeAllocs(before, after allocSnapshot, rate int) map[string]float64 {
	out := map[string]float64{}
	for key, a := range after {
		b := before[key]
		count, bytes := a.AllocObjects-b.AllocObjects, a.AllocBytes-b.AllocBytes
		if count <= 0 || bytes <= 0 {
			continue
		}
		scaled := float64(bytes)
		if rate > 1 {
			avg := float64(bytes) / float64(count)
			scaled /= 1 - math.Exp(-avg/float64(rate))
		}
		var funcs []string
		frames := runtime.CallersFrames(a.Stack())
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(funcs)] += scaled / 1e6
	}
	return out
}

// span is one timed interval recorded by the traced run. Spans of one
// request or job share an id; parent names the enclosing span's name
// within the same id ("" for a root).
type span struct {
	Name     string  `json:"name"`
	ID       string  `json:"id"`
	Parent   string  `json:"parent,omitempty"`
	Workload string  `json:"workload"`
	StartMs  float64 `json:"start_ms"`
	EndMs    float64 `json:"end_ms"`
}

// tracer records spans in memory and runs the CPU and allocation
// profiles of one traced round. A nil *tracer records nothing, so
// untraced rounds pay only a nil check.
type tracer struct {
	workload string
	origin   time.Time
	dir      string // where raw profiles are written, for go tool pprof

	mu    sync.Mutex
	spans []span

	cpu        bytes.Buffer
	allocStart allocSnapshot
	wall       time.Time
}

// record appends one span. Safe for concurrent use; no-op when t is nil.
func (t *tracer) record(name, id, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	ms := func(x time.Time) float64 { return float64(x.Sub(t.origin).Nanoseconds()) / 1e6 }
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Workload: t.workload, StartMs: ms(start), EndMs: ms(end)})
	t.mu.Unlock()
}

// do runs fn under the pprof labels of one phase, so CPU samples taken
// on this goroutine and on any it starts carry the phase.
func (t *tracer) do(phase string, fn func()) {
	if t == nil {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("workload", t.workload, "phase", phase), func(context.Context) { fn() })
}

// cpuProfileHz is the traced run's sampling rate: above pprof's 100 Hz
// default so the small layers (pipeline, report) get more than a
// handful of samples per round.
const cpuProfileHz = 250

// allocProfileRate is the traced run's runtime.MemProfileRate.
const allocProfileRate = 64 << 10

// start begins the CPU profile and the allocation baseline.
func (t *tracer) start() error {
	if t == nil {
		return nil
	}
	// Allocations before this point were sampled at the default rate;
	// the snapshots' difference holds only those sampled at this one.
	runtime.MemProfileRate = allocProfileRate
	t.allocStart = takeAllocSnapshot()
	// StartCPUProfile asks for 100 Hz and, finding a rate already set,
	// keeps this one (it prints a one-line notice on stderr).
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	t.wall = time.Now()
	return nil
}

// stop ends both profiles, writes them for offline inspection and
// returns the per-layer metrics of the round.
func (t *tracer) stop(name string) (map[string]float64, map[string]float64, error) {
	if t == nil {
		return nil, nil, nil
	}
	pprof.StopCPUProfile()
	wall := time.Since(t.wall).Seconds()
	allocs := attributeAllocs(t.allocStart, takeAllocSnapshot(), runtime.MemProfileRate)
	cpu, err := attributeCPU(t.cpu.Bytes())
	if err != nil {
		return nil, nil, err
	}
	if t.dir != "" {
		if err := os.MkdirAll(t.dir, 0o755); err == nil {
			_ = os.WriteFile(t.dir+"/"+name+".cpu.pb.gz", t.cpu.Bytes(), 0o644) // best effort: inspection only
		}
	}
	m := map[string]float64{"cpu.total_s": cpu.total, "cpu.wall_s": wall}
	var sum float64
	for _, b := range cpuBuckets {
		m[cpuMetricName(b)] = cpu.byBucket[b]
		sum += cpu.byBucket[b]
	}
	if math.Abs(sum-cpu.total) > 1e-6 {
		return nil, nil, fmt.Errorf("cpu buckets sum to %.6fs, profile total %.6fs", sum, cpu.total)
	}
	for _, b := range allocBuckets {
		m[allocMetricName(b)] = allocs[b]
	}
	return m, cpu.byPhase, nil
}
