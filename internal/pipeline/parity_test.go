package pipeline

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"stash/internal/hw"
	"stash/internal/simnet"
	"stash/internal/workload"
)

// TestLoaderDeliveryTimesPinned pins the exact instant every batch is
// delivered under each cache regime and under contention. The fetch,
// prep and upload stages may change how they are expressed, but never
// when a batch arrives: every simulated stall downstream is measured
// from these instants.
func TestLoaderDeliveryTimesPinned(t *testing.T) {
	partial := defaultCfg()
	partial.CacheBytes = workload.ImageNet1k.TotalBytes() / 2
	// A one-vCPU prep pool behind a one-batch prefetch window makes two
	// loaders hand prefetch credits back and forth while contending for
	// the CPU pool.
	prepBound := defaultCfg()
	prepBound.CPU = hw.CPUSpec{Name: "tiny", VCPUs: 1, PrepRate: 2000}
	prepBound.PrefetchDepth = 1
	cases := []struct {
		name    string
		cfg     Config
		mode    CacheMode
		loaders int
		compute time.Duration
		want    [][]time.Duration
		order   string
	}{
		{name: "cold", cfg: defaultCfg(), mode: CacheCold, loaders: 1, compute: time.Millisecond,
			want:  [][]time.Duration{{24110632, 44110632, 64110632, 84110632, 104110632, 124110632, 144110632, 164110632}},
			order: "00000000"},
		{name: "warm", cfg: defaultCfg(), mode: CacheWarm, loaders: 1, compute: 50 * time.Millisecond,
			want:  [][]time.Duration{{4110632, 54110632, 104110632, 154110632, 204110632, 254110632, 304110632, 354110632}},
			order: "00000000"},
		{name: "partial-iops", cfg: partial, mode: CacheWarm, loaders: 1, compute: 5 * time.Millisecond,
			want:  [][]time.Duration{{14110632, 24110633, 34110634, 44110635, 54110636, 64110637, 74110638, 84110639}},
			order: "00000000"},
		{name: "two-loaders", cfg: defaultCfg(), mode: CacheCold, loaders: 2, compute: time.Millisecond,
			want: [][]time.Duration{
				{48216265, 88216265, 128216265, 168216265, 208216265, 248216265, 288216265, 328216264},
				{48216265, 88216265, 128216265, 168216265, 208216265, 248216265, 288216265, 328216264},
			},
			order: "0101010101010101"},
		{name: "prep-bound-depth1", cfg: prepBound, mode: CacheWarm, loaders: 2, compute: time.Millisecond,
			want: [][]time.Duration{
				{35216264, 70432528, 105648792, 140865056, 176081320, 211297584, 246513848, 281730112},
				{35216264, 70432528, 105648792, 140865056, 176081320, 211297584, 246513848, 281730112},
			},
			order: "0101010101010101"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.cfg)
			if r.hp.iops == nil {
				t.Fatal("storage spec has no IOPS budget; the IOPS link is unexercised")
			}
			r.hp.SetCacheMode(tc.mode)
			var loaders []*Loader
			for i := 0; i < tc.loaders; i++ {
				l, err := r.hp.NewLoader(smallJob(t, 32), []*simnet.Link{r.upload}, 8)
				if err != nil {
					t.Fatalf("NewLoader: %v", err)
				}
				l.Start(fmt.Sprintf("loader-%d", i))
				loaders = append(loaders, l)
			}
			c := r.consume(t, tc.compute, loaders...)
			if fmt.Sprint(c.delivered) != fmt.Sprint(tc.want) {
				t.Errorf("delivery times changed:\n got %d\nwant %d", c.delivered, tc.want)
			}
			if c.order != tc.order {
				t.Errorf("delivery order = %q, want %q", c.order, tc.order)
			}
		})
	}
}

// TestAbandonedLoaderLeavesNoGoroutines stops a loader mid-epoch and
// recycles its engine and network, as a pooled profiler does after a
// failed run: nothing the loader started may outlive the reset.
func TestAbandonedLoaderLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	r := newRig(t, defaultCfg())
	r.hp.SetCacheMode(CacheCold)
	l, err := r.hp.NewLoader(smallJob(t, 32), []*simnet.Link{r.upload}, 8)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Start("loader")
	delivered := 0
	var onBatch func(Batch, bool)
	onBatch = func(_ Batch, ok bool) {
		if ok {
			delivered++
			l.NextFunc(onBatch)
		}
	}
	r.eng.Spawn("consumer", func() { l.NextFunc(onBatch) })
	if err := r.eng.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if delivered == 0 || delivered == 8 {
		t.Fatalf("delivered %d of 8 batches; the loader must be stopped mid-epoch", delivered)
	}
	r.eng.Reset()
	r.net.Reset()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d before the loader, %d after reset", before, after)
	}
}
