package core

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/workload"
)

func batchedServeCfg(t *testing.T, name string, prio int) workload.Config {
	t.Helper()
	return workload.Config{
		Name:         name,
		Model:        spec(t, "ResNet50"),
		Batch:        1,
		Kind:         workload.KindServing,
		Priority:     prio,
		Device:       device.GPUID(0),
		ArrivalEvery: 10 * time.Millisecond,
		MaxBatch:     8,
		BatchWait:    20 * time.Millisecond,
	}
}

// TestManagerFormsMicroBatches drives an open-loop serving job fast enough
// that requests queue, and checks the manager launches fused micro-batches
// instead of one compute per request.
func TestManagerFormsMicroBatches(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(batchedServeCfg(t, "serve", 1))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.CrashErr)
	}
	if job.ServingStats().Batches == 0 {
		t.Fatal("no micro-batches launched")
	}
	if job.ServingStats().Served <= job.ServingStats().Batches {
		t.Fatalf("Served=%d Batches=%d: batching never fused requests",
			job.ServingStats().Served, job.ServingStats().Batches)
	}
	if mean := job.ServingStats().MeanBatch(); mean <= 1.0 {
		t.Fatalf("mean batch size %.2f, want > 1", mean)
	}
	if job.ServingStats().Shed != 0 {
		t.Fatalf("shed %d requests with no SLO", job.ServingStats().Shed)
	}
	if got, want := job.Latencies.Count(), job.ServingStats().Served; got != int(want) {
		t.Fatalf("latency samples %d != served %d", got, want)
	}
	// Iterations count fused launches, one per micro-batch.
	if job.Iterations != int(job.ServingStats().Batches) {
		t.Fatalf("Iterations=%d Batches=%d, want equal", job.Iterations, job.ServingStats().Batches)
	}
}

// TestBatchedServingSurvivesPreemption runs a batched serving job under a
// higher-priority request stream that repeatedly preempts it mid-batch,
// then drains both streams and checks no admitted request was lost: every
// offered request is either served or shed, never dropped by preemption.
func TestBatchedServingSurvivesPreemption(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	victim, err := m.AddJob(batchedServeCfg(t, "batched", 1))
	if err != nil {
		t.Fatal(err)
	}
	urgent, err := m.AddJob(workload.Config{
		Name:         "urgent",
		Model:        spec(t, "MobileNetV2"),
		Batch:        1,
		Kind:         workload.KindServing,
		Priority:     2,
		Device:       device.GPUID(0),
		ArrivalEvery: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)
	if m.Preemptions == 0 {
		t.Fatal("high-priority stream never preempted the batched job")
	}
	// Stop the arrival processes only (not the jobs), then drain.
	victim.StopArrivals()
	urgent.StopArrivals()
	eng.Run()
	if victim.Crashed() || urgent.Crashed() {
		t.Fatalf("crashes: victim=%v urgent=%v", victim.CrashErr, urgent.CrashErr)
	}
	if victim.ServingStats().Served+victim.ServingStats().Shed != victim.ServingStats().Offered {
		t.Fatalf("request loss: offered=%d served=%d shed=%d",
			victim.ServingStats().Offered, victim.ServingStats().Served, victim.ServingStats().Shed)
	}
	if victim.ServingStats().Shed != 0 {
		t.Fatalf("shed %d with no SLO configured", victim.ServingStats().Shed)
	}
	if victim.ServingStats().Served <= victim.ServingStats().Batches {
		t.Fatal("batching degenerated to single-request launches under preemption")
	}
}

// TestMaxBatchZeroLaunchesSingleRequests is the serving experiment's
// unbatched arm: with MaxBatch 0 every launch carries exactly one request
// even though requests queue.
func TestMaxBatchZeroLaunchesSingleRequests(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	cfg := batchedServeCfg(t, "serve", 1)
	cfg.MaxBatch, cfg.BatchWait = 0, 0
	job, err := m.AddJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.CrashErr)
	}
	if job.ServingStats().Served == 0 {
		t.Fatal("no requests served")
	}
	if job.ServingStats().Batches != job.ServingStats().Served {
		t.Fatalf("Batches=%d Served=%d: batching ran with MaxBatch 0",
			job.ServingStats().Batches, job.ServingStats().Served)
	}
}
