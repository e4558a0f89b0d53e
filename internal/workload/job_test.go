package workload

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/models"
	"switchflow/internal/sim"
)

func testJob(t *testing.T, cfg Config) (*sim.Engine, *Job) {
	t.Helper()
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, device.ClassV100, device.ClassV100)
	if cfg.Model == nil {
		spec, err := models.ByName("MobileNetV2")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Model = spec
	}
	if cfg.Batch == 0 {
		cfg.Batch = 8
	}
	if cfg.Device == (device.ID{}) {
		cfg.Device = device.GPUID(0)
	}
	job, err := NewJob(eng, machine, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, job
}

func TestNewJobBuildsVersionsForFallbacks(t *testing.T) {
	_, job := testJob(t, Config{
		Name:      "j",
		Kind:      KindTraining,
		Fallbacks: []device.ID{device.GPUID(1), device.CPUID},
	})
	for _, dev := range []device.ID{device.GPUID(0), device.GPUID(1), device.CPUID} {
		v, err := job.Version(dev)
		if err != nil {
			t.Fatalf("Version(%v): %v", dev, err)
		}
		if v.Compute == nil {
			t.Fatalf("Version(%v) has no compute subgraph", dev)
		}
	}
	// GPU versions split CPU input from GPU compute; CPU version is one
	// subgraph.
	v0, _ := job.Version(device.GPUID(0))
	if v0.Input == nil {
		t.Fatal("GPU version missing input stage")
	}
	vc, _ := job.Version(device.CPUID)
	if vc.Input != nil {
		t.Fatal("CPU version should fold input into compute")
	}
}

func TestVersionBuiltOnDemand(t *testing.T) {
	_, job := testJob(t, Config{Name: "j", Kind: KindTraining})
	if _, err := job.Version(device.GPUID(1)); err != nil {
		t.Fatalf("on-demand version: %v", err)
	}
}

func TestStreamPerGPU(t *testing.T) {
	_, job := testJob(t, Config{Name: "j", Kind: KindTraining})
	s0 := job.Stream(device.GPUID(0))
	if s0 == nil {
		t.Fatal("no stream for gpu:0")
	}
	if job.Stream(device.GPUID(0)) != s0 {
		t.Fatal("stream not cached")
	}
	if job.Stream(device.CPUID) != nil {
		t.Fatal("CPU placement must have no stream")
	}
}

func TestWeightBytesByKind(t *testing.T) {
	_, train := testJob(t, Config{Name: "t", Kind: KindTraining})
	_, serve := testJob(t, Config{Name: "s", Kind: KindServing})
	if train.WeightBytes() != 2*serve.WeightBytes() {
		t.Fatalf("training state %d should be 2x serving %d (optimizer slot)",
			train.WeightBytes(), serve.WeightBytes())
	}
}

func TestMemoryAccounting(t *testing.T) {
	eng, job := testJob(t, Config{Name: "j", Kind: KindTraining})
	_ = eng
	gpu := device.GPUID(0)
	if err := job.AllocWeights(gpu); err != nil {
		t.Fatal(err)
	}
	if !job.WeightsOn(gpu) {
		t.Fatal("weights not tracked")
	}
	if err := job.AllocIntermediate(gpu); err != nil {
		t.Fatal(err)
	}
	job.FreeIntermediate(gpu)
	job.FreeWeights(gpu)
	if job.WeightsOn(gpu) {
		t.Fatal("weights still tracked after free")
	}
	// Double free is a no-op.
	job.FreeWeights(gpu)
	job.FreeIntermediate(gpu)
}

func TestOpenLoopArrivals(t *testing.T) {
	eng, job := testJob(t, Config{
		Name: "s", Kind: KindServing, Batch: 1,
		ArrivalEvery: 100 * time.Millisecond,
	})
	arrivals := 0
	job.StartArrivals(func() { arrivals++ })
	eng.RunUntil(time.Second)
	if arrivals != 10 {
		t.Fatalf("arrivals = %d in 1s at 10/s, want 10", arrivals)
	}
	if job.pending.Len() != 10 {
		t.Fatalf("PendingRequests() = %d", job.pending.Len())
	}
	job.StopArrivals()
	eng.RunUntil(2 * time.Second)
	if arrivals != 10 {
		t.Fatal("arrivals after StopArrivals")
	}
}

func TestClosedLoopArrivals(t *testing.T) {
	eng, job := testJob(t, Config{
		Name: "s", Kind: KindServing, Batch: 1, ClosedLoop: true,
	})
	job.StartArrivals(func() {})
	eng.Run()
	if job.pending.Len() != 1 {
		t.Fatalf("closed loop should start with 1 pending, got %d", job.pending.Len())
	}
	// Walk one request through the pipeline; completion re-arms.
	job.BeginInput()
	job.FinishInput()
	job.BeginCompute()
	job.FinishCompute()
	eng.Run()
	if job.pending.Len() != 1 {
		t.Fatalf("closed loop did not re-arm: %d pending", job.pending.Len())
	}
	if job.Latencies.Count() != 1 {
		t.Fatalf("latency samples = %d, want 1", job.Latencies.Count())
	}
}

// TestStopBeforeFirstClosedLoopArrival is the StartArrivals regression:
// the initial closed-loop request was scheduled through an untracked
// After(0, ...) handle, so a job stopped immediately after submission
// still enqueued a request and invoked the scheduler callback.
func TestStopBeforeFirstClosedLoopArrival(t *testing.T) {
	eng, job := testJob(t, Config{
		Name: "s", Kind: KindServing, Batch: 1, ClosedLoop: true,
	})
	fired := false
	job.StartArrivals(func() { fired = true })
	job.StopArrivals() // same instant, before the initial arrival lands
	eng.Run()
	if fired {
		t.Fatal("scheduler callback fired after StopArrivals")
	}
	if job.pending.Len() != 0 {
		t.Fatalf("stopped job enqueued %d requests", job.pending.Len())
	}
}

// The closed-loop re-arm must be cancellable too: stopping between a
// completion and its re-armed arrival drops the next request.
func TestStopCancelsClosedLoopRearm(t *testing.T) {
	eng, job := testJob(t, Config{
		Name: "s", Kind: KindServing, Batch: 1, ClosedLoop: true,
	})
	job.StartArrivals(func() {})
	eng.Run()
	job.BeginInput()
	job.FinishInput()
	job.BeginCompute()
	job.FinishCompute()
	job.StopArrivals()
	eng.Run()
	if job.pending.Len() != 0 {
		t.Fatalf("re-arm survived StopArrivals: %d pending", job.pending.Len())
	}
}

func TestSaturatedServingAlwaysHasWork(t *testing.T) {
	_, job := testJob(t, Config{Name: "s", Kind: KindServing, Saturated: true})
	if !job.HasWork() || !job.CanStartInput() {
		t.Fatal("saturated job must always have work")
	}
	job.BeginInput()
	job.FinishInput()
	job.BeginCompute()
	job.FinishCompute()
	if job.Iterations != 1 {
		t.Fatalf("Iterations = %d", job.Iterations)
	}
	if job.Latencies.Count() != 0 {
		t.Fatal("saturated jobs must not record latencies")
	}
}

func TestPrefetchDepthLimitsInput(t *testing.T) {
	_, job := testJob(t, Config{Name: "t", Kind: KindTraining, PrefetchDepth: 2})
	job.BeginInput()
	job.FinishInput()
	job.BeginInput()
	job.FinishInput()
	if job.CanStartInput() {
		t.Fatal("third prefetch allowed beyond depth 2")
	}
	job.BeginCompute()
	if !job.CanStartInput() {
		t.Fatal("consuming an input must free a prefetch slot")
	}
}

func TestAbandonComputeReturnsInput(t *testing.T) {
	_, job := testJob(t, Config{Name: "t", Kind: KindTraining})
	job.BeginInput()
	job.FinishInput()
	job.BeginCompute()
	if job.InputAvailable() {
		t.Fatal("input not consumed by BeginCompute")
	}
	job.AbandonCompute()
	if !job.InputAvailable() {
		t.Fatal("AbandonCompute did not return the input")
	}
	if job.Iterations != 0 {
		t.Fatal("abandoned compute counted as iteration")
	}
}

func TestNewJobValidation(t *testing.T) {
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, device.ClassV100)
	if _, err := NewJob(eng, machine, 1, Config{Name: "x"}); err == nil {
		t.Fatal("job without model accepted")
	}
	spec, _ := models.ByName("ResNet50")
	if _, err := NewJob(eng, machine, 1, Config{Name: "x", Model: spec}); err == nil {
		t.Fatal("job without batch accepted")
	}
}

func TestCrashStopsArrivals(t *testing.T) {
	eng, job := testJob(t, Config{
		Name: "s", Kind: KindServing, Batch: 1,
		ArrivalEvery: 10 * time.Millisecond,
	})
	count := 0
	job.StartArrivals(func() { count++ })
	eng.RunUntil(50 * time.Millisecond)
	job.Crash(errTest)
	eng.RunUntil(200 * time.Millisecond)
	if count > 6 {
		t.Fatalf("arrivals continued after crash: %d", count)
	}
	if !job.Crashed() {
		t.Fatal("job not marked crashed")
	}
}

var errTest = &device.OOMError{Device: "test"}

func TestPoissonArrivalsDeterministicPerSeed(t *testing.T) {
	counts := make([]int, 2)
	for trial := range counts {
		eng, job := testJob(t, Config{
			Name: "s", Kind: KindServing, Batch: 1,
			ArrivalEvery: 10 * time.Millisecond, PoissonArrivals: true, ArrivalSeed: 42,
		})
		job.StartArrivals(func() {})
		eng.RunUntil(time.Second)
		counts[trial] = job.pending.Len()
	}
	if counts[0] != counts[1] {
		t.Fatalf("same seed produced %d vs %d arrivals", counts[0], counts[1])
	}
	// Mean rate 100/s over 1s: allow generous stochastic slack.
	if counts[0] < 60 || counts[0] > 150 {
		t.Fatalf("Poisson arrivals = %d in 1s at mean 100/s", counts[0])
	}
}

func TestPoissonArrivalsVaryWithSeed(t *testing.T) {
	gaps := func(seed int64) []time.Duration {
		eng, job := testJob(t, Config{
			Name: "s", Kind: KindServing, Batch: 1,
			ArrivalEvery: 10 * time.Millisecond, PoissonArrivals: true, ArrivalSeed: seed,
		})
		var times []time.Duration
		job.StartArrivals(func() { times = append(times, eng.Now()) })
		eng.RunUntil(200 * time.Millisecond)
		return times
	}
	a, b := gaps(1), gaps(2)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("no arrivals")
	}
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival processes")
	}
}

// TestPoissonArrivalsSaturateLongGaps: a mean gap of 9e12 ms (about 285
// years) makes most exponential draws overflow a Duration. The gap must
// saturate at the end of virtual time, not wrap to a negative delay that
// the engine clamps to "now", so no request arrives in the first 2 s.
func TestPoissonArrivalsSaturateLongGaps(t *testing.T) {
	eng, job := testJob(t, Config{
		Name: "s", Kind: KindServing, Batch: 1,
		ArrivalEvery:    9e12 * time.Millisecond,
		PoissonArrivals: true, ArrivalSeed: 3,
	})
	arrivals := 0
	job.StartArrivals(func() { arrivals++ })
	eng.RunUntil(2 * time.Second)
	if arrivals != 0 {
		t.Fatalf("arrivals = %d in 2 s at a 285-year mean gap, want 0", arrivals)
	}
}
