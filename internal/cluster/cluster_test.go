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

func TestFirstFitPlacesSequentially(t *testing.T) {
	c := New(FirstFit{}, 2, device.ClassV100, device.ClassV100)
	h1 := c.Submit(0, trainCfg(t, "a", "ResNet50"))
	h2 := c.Submit(0, trainCfg(t, "b", "ResNet50"))
	c.RunUntil(time.Second)
	if !h1.Placed || !h2.Placed {
		t.Fatalf("placements: %v %v", h1.Placed, h2.Placed)
	}
	// First fit stacks both on node0/gpu:0.
	if h1.Where.String() != "node0/gpu:0" || h2.Where.String() != "node0/gpu:0" {
		t.Fatalf("placements %v, %v; want both on node0/gpu:0", h1.Where, h2.Where)
	}
	if d, ok := h1.QueueDelay(); !ok || d != 0 {
		t.Fatalf("queue delay %v (ok=%v), want 0", d, ok)
	}
}

func TestLeastLoadedSpreads(t *testing.T) {
	c := New(LeastLoaded{}, 2, device.ClassV100, device.ClassV100)
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
		seen[h.Where.String()]++
	}
	if len(seen) != 4 {
		t.Fatalf("4 jobs on %d distinct GPUs, want 4: %v", len(seen), seen)
	}
}

func TestDedicateQueuesTrainingWhenFull(t *testing.T) {
	c := New(Dedicate{}, 1, device.ClassV100, device.ClassV100)
	a := c.Submit(0, trainCfg(t, "a", "ResNet50"))
	b := c.Submit(0, trainCfg(t, "b", "ResNet50"))
	queued := c.Submit(0, trainCfg(t, "c", "ResNet50"))
	c.RunUntil(time.Second)
	if !a.Placed || !b.Placed {
		t.Fatal("first two trainings not placed")
	}
	if queued.Placed {
		t.Fatal("third training placed despite no empty GPU (dedicate)")
	}
	if waiting(c) != 1 {
		t.Fatalf("waiting = %d, want 1", waiting(c))
	}
	// Stopping a training frees its GPU slot for the queued one.
	c.Stop(a)
	c.RunUntil(2 * time.Second)
	if !queued.Placed {
		t.Fatal("queued training not placed after a slot freed")
	}
	if d, ok := queued.QueueDelay(); !ok || d <= 0 {
		t.Fatalf("queue delay = %v (ok=%v), want positive", d, ok)
	}
}

func TestDedicateNeverMixesInferenceWithTraining(t *testing.T) {
	c := New(Dedicate{}, 1, device.ClassV100, device.ClassV100)
	train := c.Submit(0, trainCfg(t, "t", "ResNet50"))
	s1 := c.Submit(0, serveCfg(t, "s1", "MobileNetV2"))
	s2 := c.Submit(0, serveCfg(t, "s2", "ResNet50"))
	c.RunUntil(time.Second)
	if !train.Placed || !s1.Placed || !s2.Placed {
		t.Fatal("placements incomplete")
	}
	if s1.Where.String() == train.Where.String() || s2.Where.String() == train.Where.String() {
		t.Fatalf("inference packed with training under dedicate: %v vs %v/%v",
			train.Where, s1.Where, s2.Where)
	}
	// The two inference services pack together.
	if s1.Where.String() != s2.Where.String() {
		t.Fatalf("inference not packed: %v vs %v", s1.Where, s2.Where)
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
	c := New(LeastLoaded{}, 2, device.ClassV100)
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
	c := New(FirstFit{}, 2, device.ClassV100, device.ClassV100)
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
		t.Fatalf("placement %v, want node0/gpu:1 (first healthy fit)", h.Where)
	}
}

func TestAllGPUsFailedQueuesJobs(t *testing.T) {
	c := New(LeastLoaded{}, 1, device.ClassV100)
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
