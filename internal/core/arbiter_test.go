package core

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/workload"
)

// arbiterHarness builds a manager and bare job states for direct
// acquire/release tests.
func arbiterHarness(t *testing.T, prios ...int) (*Manager, []*jobState) {
	t.Helper()
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	_ = eng
	states := make([]*jobState, len(prios))
	for i, prio := range prios {
		cfg := workload.Config{
			Name: "j", Model: spec(t, "MobileNetV2"), Batch: 1,
			Kind: workload.KindServing, Priority: prio, Device: device.GPUID(0),
		}
		job, err := workload.NewJob(m.eng, m.machine, i+1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = newJobState(m, job)
	}
	return m, states
}

func TestArbiterGrantsImmediatelyWhenFree(t *testing.T) {
	m, js := arbiterHarness(t, 1)
	granted := false
	m.acquire(js[0], js[0].shards[0], func() { granted = true })
	if !granted {
		t.Fatal("free GPU not granted inline")
	}
}

func TestArbiterFIFOWithinPriorityClass(t *testing.T) {
	m, js := arbiterHarness(t, 1, 1, 1)
	var order []int
	m.acquire(js[0], js[0].shards[0], func() {})
	m.acquire(js[1], js[1].shards[0], func() { order = append(order, 1) })
	m.acquire(js[2], js[2].shards[0], func() { order = append(order, 2) })
	m.release(0)
	m.release(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order %v, want [1 2]", order)
	}
}

func TestArbiterPriorityJumpsQueue(t *testing.T) {
	m, js := arbiterHarness(t, 1, 1, 2)
	m.acquire(js[0], js[0].shards[0], func() {})
	var order []string
	m.acquire(js[1], js[1].shards[0], func() { order = append(order, "low") })
	m.acquire(js[2], js[2].shards[0], func() { order = append(order, "high") })
	// The owner has no compute run, so preemption completes via the
	// deferred finish; run the engine to let it fire.
	m.eng.RunUntil(time.Second)
	if len(order) == 0 || order[0] != "high" {
		t.Fatalf("grant order %v, want high first", order)
	}
	m.release(0)
	if len(order) != 2 || order[1] != "low" {
		t.Fatalf("grant order %v, want [high low]", order)
	}
}

func TestArbiterPreemptsOnlyLowerPriority(t *testing.T) {
	m, js := arbiterHarness(t, 2, 2)
	m.acquire(js[0], js[0].shards[0], func() {})
	granted := false
	m.acquire(js[1], js[1].shards[0], func() { granted = true })
	m.eng.RunUntil(time.Second)
	if m.Preemptions != 0 {
		t.Fatalf("equal-priority acquire caused %d preemptions", m.Preemptions)
	}
	if granted {
		t.Fatal("equal-priority waiter granted while owner holds")
	}
	m.release(0)
	if !granted {
		t.Fatal("waiter not granted after release")
	}
}

// TestGrantLatencyIsPerRequest: a sibling shard's later request must not
// shorten the recorded wait of a shard that queued first. An elastic job's
// gpu:0 shard queues at 0 s, its gpu:1 shard at 1 s, and gpu:0 frees at
// 2 s, so the grant waited 2 s.
func TestGrantLatencyIsPerRequest(t *testing.T) {
	_, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	state := func(cfg workload.Config, id int) *jobState {
		job, err := workload.NewJob(m.eng, m.machine, id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return newJobState(m, job)
	}
	owner0 := state(trainCfg(t, "owner0", "MobileNetV2", 1, 1, device.GPUID(0)), 1)
	owner1 := state(trainCfg(t, "owner1", "MobileNetV2", 1, 1, device.GPUID(1)), 2)
	elastic := state(elasticCfg(t, "elastic", "MobileNetV2", 2, 1, device.GPUID(0), device.GPUID(1)), 3)
	m.acquire(owner0, owner0.shards[0], func() {})
	m.acquire(owner1, owner1.shards[0], func() {})
	m.acquire(elastic, elastic.shards[0], func() {})
	m.eng.RunUntil(time.Second)
	m.acquire(elastic, elastic.shards[1], func() {})
	m.eng.RunUntil(2 * time.Second)
	before := m.PreemptionLatencies.Count()
	m.release(0)
	if m.PreemptionLatencies.Count() != before+1 {
		t.Fatalf("release recorded %d grants, want 1", m.PreemptionLatencies.Count()-before)
	}
	if got := m.PreemptionLatencies.Max(); got != 2*time.Second {
		t.Errorf("recorded wait %v, want 2s", got)
	}
}
