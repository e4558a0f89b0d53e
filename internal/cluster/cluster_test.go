package cluster

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/models"
	"switchflow/internal/workload"
)

func spec(t *testing.T, name string) *models.Spec {
	t.Helper()
	s, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func trainCfg(t *testing.T, name, model string) workload.Config {
	return workload.Config{
		Name: name, Model: spec(t, model), Batch: 32,
		Kind: workload.KindTraining, Priority: 1,
	}
}

func serveCfg(t *testing.T, name, model string) workload.Config {
	return workload.Config{
		Name: name, Model: spec(t, model), Batch: 1,
		Kind: workload.KindServing, Priority: 2,
		ArrivalEvery: 100 * time.Millisecond,
	}
}

// waiting counts jobs still waiting for placement, gangs included.
func waiting(c *Cluster) int { return len(c.queue) + len(c.gangQueue) }

// TestLeastLoadedSpreads checks Collocate's training path: each training
// job takes the GPU running the fewest jobs.
func TestLeastLoadedSpreads(t *testing.T) {
	c := New(Collocate{}, 2, device.ClassV100, device.ClassV100)
	var handles []*JobHandle
	for i := 0; i < 4; i++ {
		handles = append(handles, c.Submit(0, trainCfg(t, "t", "ResNet50")))
	}
	c.RunUntil(time.Second)
	seen := map[string]int{}
	for _, h := range handles {
		if !h.Placed {
			t.Fatal("job not placed")
		}
		if d, ok := h.QueueDelay(); !ok || d != 0 {
			t.Fatalf("queue delay %v (ok=%v), want 0", d, ok)
		}
		seen[h.Where.String()]++
	}
	if len(seen) != 4 {
		t.Fatalf("4 jobs on %d distinct GPUs, want 4: %v", len(seen), seen)
	}
}

func TestCollocatePrefersTrainingGPUs(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100, device.ClassV100)
	train := c.Submit(0, trainCfg(t, "t", "VGG16"))
	c.RunUntil(500 * time.Millisecond)
	s := c.Submit(500*time.Millisecond, serveCfg(t, "s", "ResNet50"))
	c.RunUntil(10 * time.Second)
	if !train.Placed || !s.Placed {
		t.Fatal("placements incomplete")
	}
	if s.Where.String() != train.Where.String() {
		t.Fatalf("collocate put inference on %v, training on %v", s.Where, train.Where)
	}
	// The collocated service still meets tight tails thanks to preemption.
	if s.Job.Latencies.Count() == 0 {
		t.Fatal("no requests served")
	}
	if p95 := s.Job.Latencies.Percentile(95); p95 > 300*time.Millisecond {
		t.Fatalf("collocated p95 = %v", p95)
	}
	// And the training job keeps running on the same GPU.
	if train.Job.Iterations == 0 {
		t.Fatal("training made no progress while collocated")
	}
}

func TestClusterJobsRunIndependentlyPerNode(t *testing.T) {
	c := New(Collocate{}, 2, device.ClassV100)
	a := c.Submit(0, trainCfg(t, "a", "ResNet50"))
	b := c.Submit(0, trainCfg(t, "b", "ResNet50"))
	c.RunUntil(5 * time.Second)
	if a.Where.Node == b.Where.Node {
		t.Fatalf("least-loaded stacked both on %s", a.Where.Node)
	}
	// Two dedicated nodes: both train at full solo speed.
	if a.Job.Iterations == 0 || b.Job.Iterations == 0 {
		t.Fatal("cluster jobs made no progress")
	}
	diff := a.Job.Iterations - b.Job.Iterations
	if diff < -1 || diff > 1 {
		t.Fatalf("identical jobs diverged: %d vs %d", a.Job.Iterations, b.Job.Iterations)
	}
}

func TestPlacementSkipsFailedGPUs(t *testing.T) {
	c := New(Collocate{}, 2, device.ClassV100, device.ClassV100)
	// Take down node0's first GPU before any placement.
	c.Nodes()[0].Machine().GPU(0).Fail()
	h := c.Submit(0, trainCfg(t, "a", "ResNet50"))
	c.RunUntil(time.Second)
	if !h.Placed {
		t.Fatal("job not placed despite three healthy GPUs")
	}
	if h.Where.String() == "node0/gpu:0" {
		t.Fatalf("placed on the failed GPU: %v", h.Where)
	}
	if h.Where.String() != "node0/gpu:1" {
		t.Fatalf("placement %v, want node0/gpu:1 (first healthy GPU of the least-loaded tie)", h.Where)
	}
}

func TestAllGPUsFailedQueuesJobs(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100)
	c.Nodes()[0].Machine().GPU(0).Fail()
	h := c.Submit(0, serveCfg(t, "s", "ResNet50"))
	c.RunUntil(time.Second)
	if h.Placed {
		t.Fatalf("placed on a dead fleet: %v", h.Where)
	}
	if waiting(c) != 1 {
		t.Fatalf("queued = %d, want 1", waiting(c))
	}
}
