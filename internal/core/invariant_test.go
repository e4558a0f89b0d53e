package core

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/trace"
	"switchflow/internal/workload"
)

// TestInvariant1NoGPUCoRun verifies scheduling invariant 1 (§3.4)
// end-to-end: with several mixed jobs collocated on one GPU, kernels from
// different jobs never execute simultaneously. Verified against the
// device's own kernel timeline, not the scheduler's bookkeeping.
func TestInvariant1NoGPUCoRun(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100)
	rec := obs.NewRecorder(0)
	machine.Bus().Subscribe(rec, obs.KindKernelSpan)

	if _, err := m.AddJob(trainCfg(t, "t1", "ResNet50", 16, 1, device.GPUID(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob(trainCfg(t, "t2", "MobileNetV2", 16, 1, device.GPUID(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob(workload.Config{
		Name: "serve", Model: spec(t, "InceptionV3"), Batch: 1,
		Kind: workload.KindServing, Priority: 2, Device: device.GPUID(0),
		ArrivalEvery: 150 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)

	spans := trace.Spans(rec.Events())
	ctxs := trace.Contexts(spans)
	if len(ctxs) < 3 {
		t.Fatalf("only %d contexts ran kernels", len(ctxs))
	}
	for i, a := range ctxs {
		for _, b := range ctxs[i+1:] {
			if overlap := trace.OverlapTime(spans, a, b) + trace.OverlapTime(spans, b, a); overlap != 0 {
				t.Errorf("ctx %d and %d kernels overlapped for %v (invariant 1 violated)",
					a, b, overlap)
			}
		}
	}
}

// scenarioOutcome captures everything observable about a run.
type scenarioOutcome struct {
	trainIters  int
	serveCount  int
	serveP95    time.Duration
	preemptions int
	migrations  int
	busy        time.Duration
	finalNow    time.Duration
}

func runScenario(t *testing.T) scenarioOutcome {
	t.Helper()
	eng, machine, m := newHarness(t, Options{}, device.ClassRTX2080Ti, device.ClassGTX1080Ti)
	train, err := m.AddJob(workload.Config{
		Name: "train", Model: spec(t, "ResNet50"), Batch: 32,
		Kind: workload.KindTraining, Priority: 1, Device: device.GPUID(0),
		Fallbacks: []device.ID{device.GPUID(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	serve, err := m.AddJob(workload.Config{
		Name: "serve", Model: spec(t, "MobileNetV2"), Batch: 1,
		Kind: workload.KindServing, Priority: 2, Device: device.GPUID(0),
		ClosedLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)
	return scenarioOutcome{
		trainIters:  train.Iterations,
		serveCount:  serve.Latencies.Count(),
		serveP95:    serve.Latencies.Percentile(95),
		preemptions: m.Preemptions,
		migrations:  m.Migrations,
		busy:        machine.GPU(0).BusyTime(),
		finalNow:    eng.Now(),
	}
}

// TestDeterminism: the whole stack — engine, devices, pools, scheduler —
// is deterministic: two identical runs produce bit-identical outcomes.
func TestDeterminism(t *testing.T) {
	a := runScenario(t)
	b := runScenario(t)
	if a != b {
		t.Fatalf("two identical runs diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestMigrationSkipsFullFallback: failure injection — when the fallback
// GPU has no room for the victim's weights, the victim stays and waits
// instead of crashing.
func TestMigrationSkipsFullFallback(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassRTX2080Ti, device.ClassGTX1080Ti)
	// Fill gpu:1 almost completely.
	filler := machine.GPU(1).Mem.Available() - (100 << 20)
	if err := machine.GPU(1).Mem.Alloc(filler); err != nil {
		t.Fatal(err)
	}
	low, err := m.AddJob(workload.Config{
		Name: "low", Model: spec(t, "ResNet50"), Batch: 16,
		Kind: workload.KindTraining, Priority: 1, Device: device.GPUID(0),
		Fallbacks: []device.ID{device.GPUID(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	if _, err := m.AddJob(trainCfg(t, "high", "MobileNetV2", 16, 2, device.GPUID(0))); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(20 * time.Second)
	if low.Crashed() {
		t.Fatalf("victim crashed: %v", low.CrashErr)
	}
	if got := m.JobDevice(low); got != device.GPUID(0) {
		t.Fatalf("victim on %v, want to stay on gpu:0 (fallback full)", got)
	}
	if m.Migrations != 0 {
		t.Fatalf("migrations = %d, want 0", m.Migrations)
	}
	if low.Iterations == 0 {
		t.Fatal("staying victim made no progress")
	}
}

// TestCheckpointPreemptionRoundTrip: under checkpoint preemption the
// victim's state leaves the GPU after the grant and returns before its
// next iteration, and progress continues.
func TestCheckpointPreemptionRoundTrip(t *testing.T) {
	eng, machine, m := newHarness(t, Options{CheckpointPreemption: true}, device.ClassV100)
	train, err := m.AddJob(trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	serve, err := m.AddJob(workload.Config{
		Name: "serve", Model: spec(t, "MobileNetV2"), Batch: 1,
		Kind: workload.KindServing, Priority: 2, Device: device.GPUID(0),
		ArrivalEvery: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(15 * time.Second)
	if m.Preemptions == 0 {
		t.Fatal("no checkpoint preemptions")
	}
	if serve.Latencies.Count() == 0 {
		t.Fatal("no requests served")
	}
	if train.Iterations < 5 {
		t.Fatalf("training stalled at %d iterations", train.Iterations)
	}
	if train.Crashed() {
		t.Fatalf("training crashed: %v", train.CrashErr)
	}
	// The checkpoint transfers must have moved real bytes both ways.
	if machine.DeviceToHost(0).Transferred() < train.WeightBytes() {
		t.Error("no checkpoint-out transfer observed")
	}
	if machine.HostToDevice(0).Transferred() < train.WeightBytes() {
		t.Error("no restore transfer observed")
	}
}
