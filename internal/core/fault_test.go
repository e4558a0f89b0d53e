package core

import (
	"errors"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/fault"
)

func TestDeviceLossMigratesJobToFallback(t *testing.T) {
	eng, machine, m := newHarness(t, Options{CheckpointEvery: 2 * time.Second},
		device.ClassV100, device.ClassV100)
	cfg := trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0))
	cfg.Fallbacks = []device.ID{device.GPUID(1)}
	job, err := m.AddJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var p fault.Plan
	p.LoseGPU(5*time.Second, 0)
	in := fault.NewInjector(eng, machine, p)
	in.Attach(m)
	in.Arm()

	eng.RunUntil(5*time.Second + time.Millisecond)
	atLoss := job.Iterations

	eng.RunUntil(20 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed instead of migrating: %v", job.CrashErr)
	}
	if got := m.JobDevice(job); got != device.GPUID(1) {
		t.Fatalf("job on %v after device loss, want gpu:1", got)
	}
	if job.Iterations <= atLoss {
		t.Fatalf("no progress after migration: %d iterations at loss, %d at end",
			atLoss, job.Iterations)
	}
	if job.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", job.Restarts)
	}
	if m.FaultCounters().DeviceLost != 1 || m.FaultCounters().Migrations != 1 || m.FaultCounters().JobsLost != 0 {
		t.Fatalf("fault counters = %+v", m.FaultCounters())
	}
	if m.FaultCounters().Checkpoints == 0 {
		t.Fatal("periodic checkpointing never ran")
	}
	if m.RecoveryLatencies.Count() != 1 {
		t.Fatalf("recovery latencies recorded %d times, want 1", m.RecoveryLatencies.Count())
	}
}

func TestDeviceLossWithoutFallbackCrashesJob(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	var p fault.Plan
	p.LoseGPU(2*time.Second, 0)
	in := fault.NewInjector(eng, machine, p)
	in.Attach(m)
	in.Arm()

	eng.RunUntil(10 * time.Second)
	if !job.Crashed() {
		t.Fatal("job without fallbacks survived a device loss")
	}
	if !errors.Is(job.CrashErr, fault.ErrDeviceLost) {
		t.Fatalf("crash error = %v, want wrapped ErrDeviceLost", job.CrashErr)
	}
	if m.FaultCounters().JobsLost != 1 {
		t.Fatalf("JobsLost = %d, want 1", m.FaultCounters().JobsLost)
	}
}

func TestTransientRestartsFromCheckpoint(t *testing.T) {
	eng, machine, m := newHarness(t, Options{CheckpointEvery: time.Second}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	var p fault.Plan
	p.Transient(3*time.Second, 0)
	in := fault.NewInjector(eng, machine, p)
	in.Attach(m)
	in.Arm()

	eng.RunUntil(3*time.Second + time.Millisecond)
	atFault := job.Iterations

	eng.RunUntil(15 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed on a transient fault: %v", job.CrashErr)
	}
	if job.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", job.Restarts)
	}
	if job.Iterations <= atFault {
		t.Fatalf("no progress after restart: %d at fault, %d at end", atFault, job.Iterations)
	}
	if m.FaultCounters().Transients != 1 || m.FaultCounters().JobsLost != 0 {
		t.Fatalf("fault counters = %+v", m.FaultCounters())
	}
	// The rollback re-runs the iterations since the last 1s checkpoint.
	if m.FaultCounters().IterationsLost == 0 {
		t.Fatal("transient rollback lost no iterations despite mid-interval fault")
	}
}

func TestTransientWithoutCheckpointsRestartsFromZero(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "MobileNetV2", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	var p fault.Plan
	p.Transient(3*time.Second, 0)
	in := fault.NewInjector(eng, machine, p)
	in.Attach(m)
	in.Arm()

	eng.RunUntil(3*time.Second + 10*time.Millisecond)
	if got := job.Iterations; got != 0 {
		t.Fatalf("iterations = %d right after uncheckpointed transient, want rollback to 0", got)
	}
	eng.RunUntil(15 * time.Second)
	if job.Crashed() || job.Iterations == 0 {
		t.Fatalf("job did not recover: crashed=%v iterations=%d", job.Crashed(), job.Iterations)
	}
}

func TestInputStallPausesWithoutKillingJobs(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	var p fault.Plan
	p.StallInputs(2*time.Second, 3*time.Second)
	in := fault.NewInjector(eng, machine, p)
	in.Attach(m)
	in.Arm()

	eng.RunUntil(10 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed during input stall: %v", job.CrashErr)
	}
	if m.FaultCounters().InputStalls != 1 {
		t.Fatalf("InputStalls = %d, want 1", m.FaultCounters().InputStalls)
	}
	stalled := job.Iterations
	// The stall must cost throughput versus an undisturbed run.
	eng2, _, m2 := newHarness(t, Options{}, device.ClassV100)
	clean, err := m2.AddJob(trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng2.RunUntil(10 * time.Second)
	if stalled >= clean.Iterations {
		t.Fatalf("stalled run (%d iterations) not slower than clean run (%d)",
			stalled, clean.Iterations)
	}
}

func TestExponentialBackoffUnderRepeatedTransients(t *testing.T) {
	eng, machine, m := newHarness(t, Options{CheckpointEvery: time.Second}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	var p fault.Plan
	for i := 1; i <= 4; i++ {
		p.Transient(time.Duration(i)*5*time.Second, 0)
	}
	in := fault.NewInjector(eng, machine, p)
	in.Attach(m)
	in.Arm()

	eng.RunUntil(40 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.CrashErr)
	}
	if job.Restarts != 4 {
		t.Fatalf("Restarts = %d, want 4", job.Restarts)
	}
	if job.Iterations == 0 {
		t.Fatal("job made no progress across four restarts")
	}
}

// TestLostJobFreesItsWeights: DenseNet121 training at batch 64 does not
// fit a GTX 1080 Ti beside its weights, so the job is lost at its first
// step. Like an exiting process, it must give its weights back: a job
// admitted after it would otherwise run out of memory on a leak.
func TestLostJobFreesItsWeights(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassGTX1080Ti)
	job, err := m.AddJob(trainCfg(t, "big", "DenseNet121", 64, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second)
	if !job.Crashed() {
		t.Fatal("DenseNet121 at batch 64 fit a GTX 1080 Ti")
	}
	if used := machine.GPU(0).Mem.Used(); used != 0 || job.WeightsOn(device.GPUID(0)) {
		t.Fatalf("lost job left %d B on gpu:0 (weights tracked: %v)", used, job.WeightsOn(device.GPUID(0)))
	}
}
