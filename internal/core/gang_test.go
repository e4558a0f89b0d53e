package core

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

// newNVLinkHarness builds a manager over the 4x V100 NVLink testbed
// (islands {0,1} and {2,3}) where gang placement quality is measurable.
func newNVLinkHarness(t *testing.T) (*sim.Engine, *device.Machine, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	machine := device.NewNVLinkV100Server(eng)
	return eng, machine, NewManager(eng, machine, Options{})
}

func gangCfg(t *testing.T, name, model string, batch, prio int, devs ...device.ID) workload.Config {
	t.Helper()
	cfg := elasticCfg(t, name, model, batch, prio, devs...)
	cfg.Gang = true
	return cfg
}

func TestGangStepPaysAllReduceBarrier(t *testing.T) {
	run := func(gang bool) (*workload.Job, []obs.Event) {
		eng, _, m := newNVLinkHarness(t)
		var rec obs.Recorder
		m.bus.Subscribe(&rec, obs.KindAllReduce)
		// VGG16's ~550 MB gradient makes the sync term dominate compute,
		// so the barrier tax is unambiguous.
		cfg := elasticCfg(t, "ddp", "VGG16", 32, 1, device.GPUID(0), device.GPUID(1))
		cfg.Gang = gang
		job, err := m.AddJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(10 * time.Second)
		if job.Crashed() {
			t.Fatalf("job crashed: %v", job.CrashErr)
		}
		return job, rec.Events()
	}
	gang, syncs := run(true)
	free, noSyncs := run(false)
	if gang.Iterations == 0 {
		t.Fatal("gang made no progress")
	}
	if len(noSyncs) != 0 {
		t.Fatalf("non-gang elastic job emitted %d AllReduce events", len(noSyncs))
	}
	if len(syncs) < gang.Iterations {
		t.Fatalf("%d AllReduce events for %d committed steps; every step must pay the barrier",
			len(syncs), gang.Iterations)
	}
	for _, e := range syncs {
		if e.Count != 2 || e.Dur <= 0 {
			t.Fatalf("AllReduce event %+v, want Count=2 and positive priced Dur", e)
		}
	}
	// The sync tax is the whole point: the gang must run measurably
	// slower than the same binding without the barrier.
	if gang.Iterations >= free.Iterations {
		t.Fatalf("gang did %d iterations vs %d without sync; the all-reduce must cost time",
			gang.Iterations, free.Iterations)
	}
}

// The NVLink pair {0,1} must out-iterate the cross-island pair {1,2}:
// identical GPUs, identical shares, the only difference is the fabric
// under the ring.
func TestGangNVLinkContiguousBeatsCrossIsland(t *testing.T) {
	run := func(devs ...device.ID) int {
		eng, _, m := newNVLinkHarness(t)
		job, err := m.AddJob(gangCfg(t, "ddp", "VGG16", 32, 1, devs...))
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(10 * time.Second)
		if job.Crashed() {
			t.Fatalf("job crashed: %v", job.CrashErr)
		}
		return job.Iterations
	}
	nvlink := run(device.GPUID(0), device.GPUID(1))
	straddle := run(device.GPUID(1), device.GPUID(2))
	if nvlink <= straddle {
		t.Fatalf("NVLink-contiguous gang did %d iterations vs %d straddling the islands; NVLink must win",
			nvlink, straddle)
	}
}

func TestGangPreemptionSuspendsWholeGang(t *testing.T) {
	eng, _, m := newNVLinkHarness(t)
	var rec obs.Recorder
	m.bus.Subscribe(&rec, obs.KindGangPreempt, obs.KindGangResume, obs.KindResume)
	gang, err := m.AddJob(gangCfg(t, "ddp", "ResNet50", 32, 1,
		device.GPUID(0), device.GPUID(1)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second)
	hi, err := m.AddJob(trainCfg(t, "hi", "MobileNetV2", 16, 9, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(4 * time.Second)
	m.StopJob(hi)
	eng.RunUntil(12 * time.Second)
	if gang.Crashed() || hi.Crashed() {
		t.Fatalf("crash: gang=%v hi=%v", gang.CrashErr, hi.CrashErr)
	}
	if hi.Iterations == 0 {
		t.Fatal("high-priority job never ran on the contended GPU")
	}
	if gang.Iterations == 0 {
		t.Fatal("displaced gang never resumed")
	}
	var preempts, resumes int
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindGangPreempt:
			preempts++
			if e.Count != 2 {
				t.Fatalf("GangPreempt suspended %d replicas, want the whole gang (2): %+v", e.Count, e)
			}
		case obs.KindGangResume:
			resumes++
			if e.Count != 2 {
				t.Fatalf("GangResume restarted %d replicas, want the whole gang (2): %+v", e.Count, e)
			}
		}
	}
	if preempts == 0 {
		t.Fatal("no gang preemption recorded")
	}
	if resumes == 0 {
		t.Fatal("gang never resumed as a unit")
	}
	// All-or-nothing resume: no lone replica may restart while the gang
	// is displaced. Every per-shard Resume must be preceded by the gang
	// re-holding its full set (GangResume comes first in the stream).
	sawGangResume := false
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindGangPreempt:
			sawGangResume = false
		case obs.KindGangResume:
			sawGangResume = true
		case obs.KindResume:
			if e.Job == "ddp" && !sawGangResume {
				t.Fatalf("straggler: replica resumed at %v before the gang re-held its set", e.Time)
			}
		}
	}
	// The binding must be untouched: gang preemption never rebinds.
	if b := gang.Binding(); b.Len() != 2 || !b.Uses(device.GPUID(0)) || !b.Uses(device.GPUID(1)) {
		t.Fatalf("gang preemption changed the binding: %v", b)
	}
}

func TestGangValidation(t *testing.T) {
	_, _, m := newNVLinkHarness(t)
	// Gang replicas must land on distinct GPUs.
	cfg := gangCfg(t, "dup", "MobileNetV2", 8, 1, device.GPUID(0), device.GPUID(0))
	if _, err := m.AddJob(cfg); err == nil {
		t.Fatal("duplicate gang GPUs should be rejected")
	}
	// A gang needs vnodes from some placement layer.
	bare := trainCfg(t, "bare", "MobileNetV2", 8, 1, device.GPUID(0))
	bare.Gang = true
	if _, err := m.AddJob(bare); err == nil {
		t.Fatal("gang without vnodes should be rejected")
	}
	// Replicas hint must match materialized vnodes.
	mism := gangCfg(t, "mismatch", "MobileNetV2", 8, 1, device.GPUID(0), device.GPUID(1))
	mism.Replicas = 3
	if _, err := m.AddJob(mism); err == nil {
		t.Fatal("Replicas/VNodes mismatch should be rejected")
	}
}
