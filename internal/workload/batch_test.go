package workload

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/models"
)

// servingJob builds an open-loop serving job with batching knobs and
// walks arrivals in by hand (admitArrival), so tests control the queue
// state without running the arrival process.
func servingJob(t *testing.T, maxBatch int, slo, wait time.Duration) (*Job, func(n int)) {
	t.Helper()
	_, job := testJob(t, Config{
		Name: "s", Kind: KindServing, Batch: 1,
		ArrivalEvery: 10 * time.Millisecond,
		SLO:          slo, MaxBatch: maxBatch, BatchWait: wait,
	})
	admit := func(n int) {
		for i := 0; i < n; i++ {
			job.admitArrival(job.eng.Now())
		}
	}
	return job, admit
}

func TestMicroBatchFormation(t *testing.T) {
	job, admit := servingJob(t, 4, 0, 0)
	admit(6)
	if job.pending.Len() != 6 {
		t.Fatalf("pending = %d, want 6 (no SLO, nothing shed)", job.pending.Len())
	}
	// Preprocess four requests (PrefetchDepth was raised to MaxBatch).
	for i := 0; i < 4; i++ {
		if !job.CanStartInput() {
			t.Fatalf("input slot %d unavailable with prefetch depth >= MaxBatch", i)
		}
		job.BeginInput()
		job.FinishInput()
	}
	job.BeginCompute()
	if len(job.active) != 4 {
		t.Fatalf("micro-batch size = %d, want 4", len(job.active))
	}
	job.FinishCompute()
	if job.Iterations != 1 {
		t.Fatalf("Iterations = %d, want 1 (one fused launch)", job.Iterations)
	}
	if job.ServingStats().Served != 4 || job.ServingStats().Batches != 1 {
		t.Fatalf("Served/Batches = %d/%d, want 4/1", job.ServingStats().Served, job.ServingStats().Batches)
	}
	if job.Latencies.Count() != 4 {
		t.Fatalf("latency samples = %d, want one per request", job.Latencies.Count())
	}
}

func TestBatchedComputeVersionScalesUp(t *testing.T) {
	job, admit := servingJob(t, 4, 0, 0)
	v1, err := job.NextComputeVersion(device.GPUID(0))
	if err != nil {
		t.Fatal(err)
	}
	admit(4)
	for i := 0; i < 4; i++ {
		job.BeginInput()
		job.FinishInput()
	}
	v4, err := job.NextComputeVersion(device.GPUID(0))
	if err != nil {
		t.Fatal(err)
	}
	if v4 == v1 {
		t.Fatal("4-request micro-batch must use its own graph version")
	}
	if again, _ := job.NextComputeVersion(device.GPUID(0)); again != v4 {
		t.Fatal("batched version not memoized")
	}
	c1, c4 := serialNodes(v1), serialNodes(v4)
	if c4 != c1 {
		t.Fatalf("batched graph has %d compute nodes, base %d — batching must scale the batch dimension, not the graph", c4, c1)
	}
}

func serialNodes(v *Version) int { return len(v.Compute.Nodes) }

func TestAdmissionShedsBeyondSLO(t *testing.T) {
	// A 1 microsecond SLO is unmeetable for any real model: every
	// open-loop arrival must be shed and nothing enqueued.
	job, admit := servingJob(t, 4, time.Microsecond, 0)
	admit(5)
	if job.ServingStats().Offered != 5 || job.ServingStats().Shed != 5 {
		t.Fatalf("Offered/Shed = %d/%d, want 5/5", job.ServingStats().Offered, job.ServingStats().Shed)
	}
	if job.pending.Len() != 0 {
		t.Fatalf("shed requests were enqueued: %d pending", job.pending.Len())
	}
}

func TestAdmissionAdmitsWithinSLO(t *testing.T) {
	// A 10 s SLO dwarfs any single-batch execution: nothing is shed
	// until the backlog projection actually exceeds it.
	job, admit := servingJob(t, 4, 10*time.Second, 0)
	admit(3)
	if job.ServingStats().Shed != 0 {
		t.Fatalf("Shed = %d with a 10s SLO and 3 requests", job.ServingStats().Shed)
	}
	if job.pending.Len() != 3 {
		t.Fatalf("pending = %d, want 3", job.pending.Len())
	}
}

func TestClosedLoopNeverSheds(t *testing.T) {
	eng, job := testJob(t, Config{
		Name: "s", Kind: KindServing, Batch: 1, ClosedLoop: true,
		SLO: time.Microsecond, // unmeetable, but closed loops self-limit
	})
	job.StartArrivals(func() {})
	eng.Run()
	if job.ServingStats().Shed != 0 {
		t.Fatalf("closed-loop request shed: %d", job.ServingStats().Shed)
	}
	if job.pending.Len() != 1 {
		t.Fatalf("pending = %d, want 1", job.pending.Len())
	}
}

func TestHoldForBatchWindow(t *testing.T) {
	job, admit := servingJob(t, 4, 0, 5*time.Millisecond)
	notified := 0
	job.StartArrivals(func() { notified++ })
	if job.HoldForBatch() {
		t.Fatal("hold with no ready inputs")
	}
	admit(2)
	job.BeginInput()
	job.FinishInput()
	if !job.HoldForBatch() {
		t.Fatal("one ready input below target must hold while the window is open")
	}
	// The max-wait timer re-pumps at the deadline and the hold lapses.
	job.eng.RunUntil(job.eng.Now() + 6*time.Millisecond)
	if job.HoldForBatch() {
		t.Fatal("hold persisted past the batch-wait deadline")
	}
	if notified == 0 {
		t.Fatal("batch-wait timer did not re-pump the scheduler")
	}
}

func TestHoldEndsAtTargetBatch(t *testing.T) {
	job, admit := servingJob(t, 2, 0, time.Hour)
	admit(2)
	job.BeginInput()
	job.FinishInput()
	if !job.HoldForBatch() {
		t.Fatal("sub-target batch must hold")
	}
	job.BeginInput()
	job.FinishInput()
	if job.HoldForBatch() {
		t.Fatal("full target batch must launch immediately")
	}
}

func TestAbandonComputeReturnsMicroBatch(t *testing.T) {
	job, admit := servingJob(t, 2, 0, 0)
	admit(2)
	for i := 0; i < 2; i++ {
		job.BeginInput()
		job.FinishInput()
	}
	job.BeginCompute()
	first := append([]time.Duration(nil), job.active...)
	job.AbandonCompute()
	if !job.InputAvailable() {
		t.Fatal("abandoned micro-batch not returned to ready queue")
	}
	job.BeginCompute()
	if len(job.active) != 2 || job.active[0] != first[0] || job.active[1] != first[1] {
		t.Fatalf("re-formed batch %v, want original %v in arrival order", job.active, first)
	}
	job.FinishCompute()
	if job.ServingStats().Served != 2 || job.Iterations != 1 {
		t.Fatalf("Served/Iterations = %d/%d after abandon+retry, want 2/1",
			job.ServingStats().Served, job.Iterations)
	}
}

func TestTargetBatchRespectsSLOBudget(t *testing.T) {
	// With no SLO the target is MaxBatch; with a budget only as large a
	// batch as still fits the SLO may form.
	free, _ := servingJob(t, 8, 0, 0)
	if got := free.TargetBatch(); got != 8 {
		t.Fatalf("TargetBatch() = %d with no SLO, want MaxBatch", got)
	}
	tight, _ := servingJob(t, 8, 2*time.Microsecond, 0)
	if got := tight.TargetBatch(); got != 1 {
		t.Fatalf("TargetBatch() = %d with unmeetable SLO, want 1", got)
	}
}

// TestTargetBatchBisects: the target is the largest size from 2 to
// MaxBatch whose estimate fits the SLO budget, else 1, as a scan down
// from MaxBatch finds it, for every zoo model; and finding it prices a
// logarithmic number of sizes. Pricing every size built one graph
// version each, so a MaxBatch of 10^5 ran out of memory on the first
// arrival. Near MaxBatch it prices what the scan did, so the fleet's
// replicas (MaxBatch 4) build the same graph versions as before.
func TestTargetBatchBisects(t *testing.T) {
	const maxBatch = 48
	for _, name := range models.Names() {
		spec, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, ref := testJob(t, Config{Name: "ref", Kind: KindServing, Model: spec, Batch: 1,
			ArrivalEvery: 10 * time.Millisecond, MaxBatch: maxBatch})
		for _, k := range []int{2, 7, 19, maxBatch} {
			for _, slack := range []time.Duration{-1, 0, 1} {
				slo := ref.batchEstimate(k) + slack
				want := 1
				for size := maxBatch; size > 1; size-- {
					if ref.batchEstimate(size) <= slo {
						want = size
						break
					}
				}
				_, job := testJob(t, Config{Name: "s", Kind: KindServing, Model: spec, Batch: 1,
					ArrivalEvery: 10 * time.Millisecond, SLO: slo, MaxBatch: maxBatch})
				if got := job.TargetBatch(); got != want {
					t.Errorf("%s, SLO %v: TargetBatch() = %d, want %d", name, slo, got, want)
				}
			}
		}
	}
	job, _ := servingJob(t, 1024, 2*time.Microsecond, 0)
	if job.TargetBatch(); len(job.batchEst) > 22 {
		t.Errorf("finding the target priced %d sizes of 1024, want at most 22", len(job.batchEst))
	}
	// A target within two of MaxBatch prices exactly the sizes a scan
	// down from MaxBatch does.
	for _, k := range []int{4, 3, 2} {
		ref, _ := servingJob(t, 4, 0, 0)
		job, _ := servingJob(t, 4, ref.batchEstimate(k), 0)
		if got := job.TargetBatch(); got != k || len(job.batchEst) != 5-k {
			t.Errorf("target %d of 4: got %d after pricing %d sizes, want %d", k, got, len(job.batchEst), 5-k)
		}
	}
}

// The serving compute cycle — admit, stage, take a micro-batch
// (BeginCompute), serve or hand it back after a preemption
// (AbandonCompute) — refills the job's own batch buffer, so once warm it
// allocates nothing, and neither does re-opening the batch-wait window.
func TestServingBatchCycleAllocFree(t *testing.T) {
	job, admit := servingJob(t, 4, 0, time.Millisecond)
	cycle := func() {
		admit(4)
		for job.CanStartInput() {
			job.BeginInput()
			job.FinishInput()
		}
		job.BeginCompute()
		job.AbandonCompute()
		job.BeginCompute()
		job.FinishCompute()
		job.openBatchWindow()
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("%v allocations per micro-batch cycle, want 0", allocs)
	}
	if job.Iterations != 22 {
		t.Fatalf("%d micro-batches served, want 22", job.Iterations)
	}
}
