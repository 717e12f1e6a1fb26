package simnet

import (
	"testing"
	"time"

	"stash/internal/sim"
)

// BenchmarkFlowLifecycle measures start-to-completion cost of sequential
// flows on one link.
func BenchmarkFlowLifecycle(b *testing.B) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("l", 1e9, time.Microsecond)
	done := 0
	var next func()
	next = func() {
		f := n.StartFlow(1e6, []*Link{l})
		e.Schedule(0, func() {
			_ = f
		})
		done++
		if done < b.N {
			e.Schedule(time.Millisecond, next)
		}
	}
	e.Schedule(0, next)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecompute16Way measures the max-min fair recomputation with a
// 16-flow contention set (the p2.16xlarge ring shape). Every iteration
// after the first replays route sets already solved, so it measures the
// memo-hit path; BenchmarkRecomputeMiss measures the fill.
func BenchmarkRecompute16Way(b *testing.B) {
	e := sim.NewEngine()
	n := New(e)
	bus := n.NewLink("bus", 1e12, 0)
	var up, down []*Link
	for i := 0; i < 16; i++ {
		up = append(up, n.NewLink("up", 1e10, 0))
		down = append(down, n.NewLink("down", 1e10, 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			n.StartFlow(1e5, []*Link{up[j], bus, down[(j+1)%16]})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecomputeMiss measures a solve the memo cannot answer: the
// memo and the encoded key are dropped before every solve of the 16-flow
// ring set, so each one encodes the key, runs progressive filling and
// stores the rates.
func BenchmarkRecomputeMiss(b *testing.B) {
	n := New(sim.NewEngine())
	bus := n.NewLink("bus", 1e12, 0)
	var up, down []*Link
	for i := 0; i < 16; i++ {
		up = append(up, n.NewLink("up", 1e10, 0))
		down = append(down, n.NewLink("down", 1e10, 0))
	}
	for j := 0; j < 16; j++ {
		n.flows = append(n.flows, &Flow{route: []*Link{up[j], bus, down[(j+1)%16]}, index: j})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(n.memo)
		n.keyed = 0
		n.solve()
	}
}

// BenchmarkRecomputeRingPipeline measures one training step's worth of
// solves on a p3.8xlarge-like host: an 8-rank ring over per-GPU links and
// a shared PCIe switch, beside the input pipeline's disk read, CPU
// pre-processing and per-GPU host-to-device uploads.
func BenchmarkRecomputeRingPipeline(b *testing.B) {
	e := sim.NewEngine()
	n := New(e)
	pcie := n.NewLink("pcie", 12e9, time.Microsecond)
	disk := n.NewLink("disk", 250e6, 0)
	cpu := n.NewLink("cpu", 32*400, 0)
	var gpu []*Link
	for i := 0; i < 8; i++ {
		gpu = append(gpu, n.NewLink("gpu", 25e9, time.Microsecond))
	}
	ring := make([][]*Link, 8)
	upload := make([][]*Link, 8)
	for j := range ring {
		ring[j] = []*Link{gpu[j], pcie, gpu[(j+1)%8]}
		upload[j] = []*Link{pcie, gpu[j]}
	}
	diskRoute, cpuRoute := []*Link{disk}, []*Link{cpu}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.StartFlow(8e6, diskRoute)
		n.StartFlow(256, cpuRoute)
		for j := range ring {
			n.StartFlow(4e6, ring[j])
			n.StartFlowLatency(2e6, upload[j], 0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
