package simnet_test

import (
	"testing"

	"stash/internal/cloud"
	"stash/internal/dnn"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/train"
	"stash/internal/workload"
)

// TestRingTrainingHitsMemo runs a synthetic 16-GPU ring training job:
// every all-reduce step replays a route set solved before, so the memo
// must answer at least 99% of solves.
func TestRingTrainingHitsMemo(t *testing.T) {
	it, err := cloud.ByName("p2.16xlarge")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net := simnet.New(eng)
	top, err := cloud.NewProvisioner(cloud.SliceDegraded, 1).Provision(net, it, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnn.ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	job, err := workload.NewJob(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := train.Run(eng, net, train.Config{Job: job, Topology: top, Iterations: 10, Synthetic: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorldSize != 16 {
		t.Fatalf("WorldSize = %d, want 16", res.WorldSize)
	}
	solves, hits := simnet.MemoStats(net)
	if solves == 0 || float64(hits) < 0.99*float64(solves) {
		t.Errorf("memo answered %d of %d solves, want >= 99%%", hits, solves)
	}
	t.Logf("memo answered %d of %d solves", hits, solves)
}
