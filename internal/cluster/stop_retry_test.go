package cluster

import (
	"testing"
	"time"

	"switchflow/internal/device"
)

// TestStopTwiceDecrementsOnce is the regression test for the double-Stop
// accounting bug: a second Stop on the same handle used to decrement the
// node's per-GPU load counters again, driving them negative and skewing
// every load-aware policy afterwards.
func TestStopTwiceDecrementsOnce(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100)
	h1 := c.Submit(0, trainCfg(t, "a", "ResNet50"))
	h2 := c.Submit(0, trainCfg(t, "b", "ResNet50"))
	c.RunUntil(time.Second)
	n := c.nodes[0]
	if n.perGPU[0].jobs != 2 || n.perGPU[0].training != 2 {
		t.Fatalf("perGPU after two placements = %+v, want {2 2}", n.perGPU[0])
	}

	c.Stop(h1)
	if !h1.Stopped() {
		t.Fatal("handle not marked stopped")
	}
	c.Stop(h1) // must be a no-op
	if n.perGPU[0].jobs != 1 || n.perGPU[0].training != 1 {
		t.Fatalf("perGPU after double Stop = %+v, want {1 1}", n.perGPU[0])
	}
	placed := c.placed
	if len(placed) != 1 || placed[0] != h2 {
		t.Fatalf("placed after Stop = %v, want just the surviving handle", placed)
	}
}

// TestPerGPUCountersNeverNegative stops every job repeatedly and asserts
// the load-counter invariant the policies depend on: counters end at zero
// and never go below it.
func TestPerGPUCountersNeverNegative(t *testing.T) {
	c := New(Collocate{}, 2, device.ClassV100, device.ClassV100)
	var handles []*JobHandle
	for i := 0; i < 6; i++ {
		handles = append(handles, c.Submit(0, trainCfg(t, "t", "ResNet50")))
	}
	c.RunUntil(time.Second)
	for _, h := range handles {
		c.Stop(h)
		c.Stop(h)
		c.Stop(h)
		for _, n := range c.nodes {
			for gpu, load := range n.perGPU {
				if load.jobs < 0 || load.training < 0 {
					t.Fatalf("node %s gpu %d counters went negative: %+v", n.Name, gpu, load)
				}
			}
		}
	}
	for _, n := range c.nodes {
		for gpu, load := range n.perGPU {
			if load.jobs != 0 || load.training != 0 {
				t.Fatalf("node %s gpu %d counters nonzero after stopping all: %+v", n.Name, gpu, load)
			}
		}
	}
}

// TestQueuedSubmissionPlacesAtBarrierWithoutStop is the regression test
// for the lost-retry bug: a submission queued because no capacity existed
// was only ever retried by Cluster.Stop, so capacity freed any other way
// (an undrained GPU, a manager-level stop, an elastic shrink) left it
// queued forever. Barriers now retry the queue every epoch.
func TestQueuedSubmissionPlacesAtBarrierWithoutStop(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100)
	if err := c.nodes[0].mgr.DrainDevice(device.GPUID(0)); err != nil {
		t.Fatal(err)
	}
	h := c.Submit(0, trainCfg(t, "late", "ResNet50"))
	c.RunUntil(20 * time.Millisecond)
	if h.Placed || waiting(c) != 1 {
		t.Fatalf("placed=%v queued=%d, want the submission parked in the queue", h.Placed, waiting(c))
	}
	if _, ok := h.QueueDelay(); ok {
		t.Fatal("QueueDelay reported ok for an unplaced job")
	}

	// Capacity returns without any Cluster.Stop: only the barrier retry
	// can place the queued job now.
	if err := c.nodes[0].mgr.UndrainDevice(device.GPUID(0)); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(40 * time.Millisecond)
	if !h.Placed {
		t.Fatal("queued submission never retried at a barrier")
	}
	if d, ok := h.QueueDelay(); !ok || d <= 0 {
		t.Fatalf("QueueDelay = %v, %v; want a positive queued wait", d, ok)
	}
	if waiting(c) != 0 {
		t.Fatalf("queue still holds %d entries", waiting(c))
	}
}

// TestRetryClearsVacatedTail: a barrier retry that places queued jobs
// compacts the queue in place, and the slots it vacates past len must be
// nil, so the backing array keeps no placed handle (or its job) alive.
func TestRetryClearsVacatedTail(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100)
	if err := c.nodes[0].mgr.DrainDevice(device.GPUID(0)); err != nil {
		t.Fatal(err)
	}
	a := c.Submit(0, trainCfg(t, "a", "ResNet50"))
	b := c.Submit(0, trainCfg(t, "b", "ResNet50"))
	c.RunUntil(20 * time.Millisecond)
	if len(c.queue) != 2 {
		t.Fatalf("queue holds %d jobs, want both parked", len(c.queue))
	}
	if err := c.nodes[0].mgr.UndrainDevice(device.GPUID(0)); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(40 * time.Millisecond)
	if !a.Placed || !b.Placed || len(c.queue) != 0 {
		t.Fatalf("placed a=%v b=%v, %d still queued; want both placed", a.Placed, b.Placed, len(c.queue))
	}
	for i, h := range c.queue[:cap(c.queue)] {
		if h != nil {
			t.Fatalf("queue slot %d past len still holds placed job %s", i, h.Cfg.Name)
		}
	}
}
