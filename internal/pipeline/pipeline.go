// Package pipeline simulates the DNN input pipeline of one machine: a
// storage volume shared by all dataloader workers, the OS page cache, a
// CPU pre-processing pool, and the PCIe upload to each GPU. Fetch (disk)
// and prep (CPU) stalls emerge when the pipeline cannot keep up with the
// GPUs, exactly the phenomena DS-Analyzer's steps measure (§II-B).
//
// Contention is modeled with fluid flows: the disk and the CPU pool are
// simnet links whose capacity all concurrent workers share max-min
// fairly, so 16 workers hammering one gp2 volume starve each other the
// way Fig 4b shows.
package pipeline

import (
	"fmt"

	"stash/internal/hw"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/workload"
)

// CacheMode selects the page-cache state for a run, mirroring
// DS-Analyzer's methodology.
type CacheMode int

// Cache modes.
const (
	// CacheCold models step 3: caches dropped before the run, every
	// sample is read from the volume (each exactly once per epoch).
	CacheCold CacheMode = iota + 1

	// CacheWarm models step 4: the dataset was fully read in a previous
	// epoch; reads hit DRAM up to the cache capacity.
	CacheWarm
)

// String returns the mode name.
func (m CacheMode) String() string {
	switch m {
	case CacheCold:
		return "cold"
	case CacheWarm:
		return "warm"
	default:
		return fmt.Sprintf("CacheMode(%d)", int(m))
	}
}

// Config describes one machine's input-pipeline hardware.
type Config struct {
	Storage hw.StorageSpec
	CPU     hw.CPUSpec

	// CacheBytes is the DRAM available for the page cache (main memory
	// minus framework overhead).
	CacheBytes float64

	// PrefetchDepth is how many batches each dataloader keeps in flight
	// ahead of the consumer (PyTorch DataLoader prefetch); 0 uses the
	// default of 2.
	PrefetchDepth int
}

// HostPipeline is the shared input-pipeline state of one machine.
type HostPipeline struct {
	eng  *sim.Engine
	net  *simnet.Network
	cfg  Config
	disk *simnet.Link
	iops *simnet.Link
	cpu  *simnet.Link
	mode CacheMode

	// One-link routes for the per-batch fetch flows, built once.
	diskRoute, iopsRoute []*simnet.Link
}

// New builds a host pipeline on the machine's network. Node namespaces
// the link names.
func New(eng *sim.Engine, net *simnet.Network, node int, cfg Config) (*HostPipeline, error) {
	if cfg.Storage.Throughput <= 0 {
		return nil, fmt.Errorf("pipeline: storage throughput %v <= 0", cfg.Storage.Throughput)
	}
	if cfg.CPU.VCPUs < 1 || cfg.CPU.PrepRate <= 0 {
		return nil, fmt.Errorf("pipeline: bad CPU spec %+v", cfg.CPU)
	}
	if cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("pipeline: negative cache size")
	}
	if cfg.PrefetchDepth == 0 {
		cfg.PrefetchDepth = 4
	}
	if cfg.PrefetchDepth < 0 {
		return nil, fmt.Errorf("pipeline: negative prefetch depth")
	}
	hp := &HostPipeline{
		eng:  eng,
		net:  net,
		cfg:  cfg,
		mode: CacheWarm,
		disk: net.NewLink(fmt.Sprintf("node%d/disk", node), cfg.Storage.Throughput, cfg.Storage.RequestLatency),
		// The CPU pool is a fluid resource measured in samples/sec.
		cpu: net.NewLink(fmt.Sprintf("node%d/cpu", node), float64(cfg.CPU.VCPUs)*cfg.CPU.PrepRate, 0),
	}
	if cfg.Storage.IOPS > 0 {
		// Random small-file reads are bounded by the volume's operation
		// budget as well as its byte throughput (one read op per sample).
		hp.iops = net.NewLink(fmt.Sprintf("node%d/disk-iops", node), cfg.Storage.IOPS, 0)
		hp.iopsRoute = []*simnet.Link{hp.iops}
	}
	hp.diskRoute = []*simnet.Link{hp.disk}
	return hp, nil
}

// SetCacheMode switches between the cold (step 3) and warm (step 4)
// cache regimes for subsequent reads.
func (hp *HostPipeline) SetCacheMode(m CacheMode) { hp.mode = m }

// CacheMode returns the current cache regime.
func (hp *HostPipeline) CacheMode() CacheMode { return hp.mode }

// hitFraction returns the fraction of reads served from DRAM for the
// given dataset.
func (hp *HostPipeline) hitFraction(ds workload.Dataset) float64 {
	if hp.mode == CacheCold {
		return 0
	}
	total := ds.TotalBytes()
	if total <= hp.cfg.CacheBytes {
		return 1
	}
	return hp.cfg.CacheBytes / total
}

// Batch is one ready-to-train mini-batch produced by a loader.
type Batch struct {
	Index int
}

// Loader is one GPU worker's dataloader: it fetches, preps and uploads
// batches ahead of the consumer.
type Loader struct {
	hp         *HostPipeline
	job        workload.Job
	uploadTo   []*simnet.Link
	iterations int
	queue      *sim.Queue[Batch]
	credits    *sim.Resource
}

// NewLoader creates a dataloader that will produce the given number of
// batches for job, uploading each decoded batch along uploadTo (the
// host-to-GPU route). Call Start to spawn its stage tasks.
func (hp *HostPipeline) NewLoader(job workload.Job, uploadTo []*simnet.Link, iterations int) (*Loader, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("pipeline: iterations %d < 1", iterations)
	}
	if len(uploadTo) == 0 {
		return nil, fmt.Errorf("pipeline: empty upload route")
	}
	return &Loader{
		hp:         hp,
		job:        job,
		uploadTo:   uploadTo,
		iterations: iterations,
		queue:      sim.NewQueue[Batch](hp.eng),
		credits:    sim.NewResource(hp.eng, hp.cfg.PrefetchDepth),
	}, nil
}

// Start spawns the loader's stage tasks. Fetch, prep and upload run as a
// three-stage pipeline (as PyTorch DataLoader workers plus the
// pinned-memory uploader do), so steady-state loader throughput is set by
// the slowest stage, not their sum. Name prefixes the task names.
func (l *Loader) Start(name string) {
	eng := l.hp.eng
	batch := float64(l.job.BatchPerGPU)
	fetched := sim.NewQueue[Batch](eng)
	prepped := sim.NewQueue[Batch](eng)

	f := &fetcher{l: l, out: fetched}
	f.cont = f.step
	f.task = eng.Spawn(name+"/fetch", f.cont)

	// Decode+augment on the shared CPU pool. The "bytes" of this flow are
	// samples of standard prep work.
	prep := &relay{net: l.hp.net, in: fetched, out: prepped, work: batch * l.job.Dataset.PrepCostFactor}
	if prep.work > 0 {
		prep.route = []*simnet.Link{l.hp.cpu}
	}
	prep.start(eng, name+"/prep")

	// Upload the decoded batch to the GPU over PCIe.
	upload := &relay{net: l.hp.net, in: prepped, out: l.queue, work: batch * l.job.Model.SampleBytes, route: l.uploadTo}
	upload.start(eng, name+"/upload")
}

// fetchState is the fetch stage's position within one batch.
type fetchState int

const (
	fetchCredit fetchState = iota // take a prefetch credit for the next batch
	fetchRead                     // start reading the batch's cache misses
	fetchPut                      // wait for the read, then hand the batch on
)

// fetcher is the fetch stage: per batch it takes a prefetch credit, reads
// the batch's cache misses from the volume, and queues it for prep.
type fetcher struct {
	l     *Loader
	task  *sim.Task
	out   *sim.Queue[Batch]
	state fetchState
	i     int          // index of the batch being fetched
	read  *simnet.Flow // the batch's byte read; nil when fully cached
	cont  func()       // step, bound once per loader
}

// step advances the fetch stage until it waits or has fetched every
// batch.
func (f *fetcher) step() {
	hp := f.l.hp
	for {
		switch f.state {
		case fetchCredit:
			if f.i == f.l.iterations {
				f.out.Close()
				f.task.End()
				return
			}
			f.state = fetchRead
			f.l.credits.AcquireFunc(f.cont)
			return

		case fetchRead:
			// Read the encoded batch from the volume, minus cache hits.
			// Bytes and read operations are separate budgets consumed
			// concurrently; the slower one gates the fetch.
			f.state = fetchPut
			batch := float64(f.l.job.BatchPerGPU)
			ds := f.l.job.Dataset
			missFrac := 1 - hp.hitFraction(ds)
			diskBytes := batch * ds.DiskBytesPerSample * missFrac
			if diskBytes <= 0 {
				continue
			}
			f.read = hp.net.StartFlow(diskBytes, hp.diskRoute)
			if hp.iops != nil {
				ops := hp.net.StartFlowLatency(batch*missFrac, hp.iopsRoute, 0)
				if done := ops.Done(); !done.Fired() {
					done.OnFire(f.cont)
					return
				}
			}

		case fetchPut:
			if f.read != nil {
				if done := f.read.Done(); !done.Fired() {
					done.OnFire(f.cont)
					return
				}
				f.read = nil
			}
			f.out.Put(Batch{Index: f.i})
			f.i++
			f.state = fetchCredit
		}
	}
}

// relay is the prep or the upload stage: it takes each batch from in,
// moves work units over route as one flow, and queues the batch on out.
// A nil route passes batches straight through. When in is closed and
// drained, the relay closes out and ends.
type relay struct {
	net     *simnet.Network
	task    *sim.Task
	in, out *sim.Queue[Batch]
	work    float64
	route   []*simnet.Link

	held   bool  // batch has been moved and waits to be queued on out
	batch  Batch // the batch in flight
	cont   func()
	onItem func(Batch, bool)
}

func (s *relay) start(eng *sim.Engine, name string) {
	s.cont = s.step
	s.onItem = s.receive
	s.task = eng.Spawn(name, s.cont)
}

// step queues the batch the relay holds, if any, and asks for the next.
func (s *relay) step() {
	if s.held {
		s.held = false
		s.out.Put(s.batch)
	}
	s.in.GetFunc(s.onItem)
}

// receive starts moving a batch taken from in.
func (s *relay) receive(b Batch, ok bool) {
	if !ok {
		s.out.Close()
		s.task.End()
		return
	}
	s.batch, s.held = b, true
	if s.route != nil {
		if done := s.net.StartFlow(s.work, s.route).Done(); !done.Fired() {
			done.OnFire(s.cont)
			return
		}
	}
	s.step()
}

// NextFunc hands the consumer its next batch: fn receives it
// synchronously when one is buffered, otherwise when the upload stage
// produces it; ok is false after the final batch. The time until fn runs
// is the worker's fetch+prep stall. The prefetch credit is returned
// before fn runs.
func (l *Loader) NextFunc(fn func(Batch, bool)) {
	l.queue.GetFunc(func(b Batch, ok bool) {
		if ok {
			l.credits.Release()
		}
		fn(b, ok)
	})
}

// DiskLink exposes the machine's storage link (for probes and tests).
func (hp *HostPipeline) DiskLink() *simnet.Link { return hp.disk }

// CPULink exposes the machine's prep-pool link (for probes and tests).
func (hp *HostPipeline) CPULink() *simnet.Link { return hp.cpu }
