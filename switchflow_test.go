package switchflow_test

import (
	"testing"
	"time"

	"switchflow"
)

// newSwitchFlow builds the paper's scheduler, failing the test on error.
func newSwitchFlow(t *testing.T, sim *switchflow.Simulation) *switchflow.SwitchFlowScheduler {
	t.Helper()
	sched, err := sim.NewSwitchFlowScheduler()
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// newPolicy builds a scheduler for the given policy, failing on error.
func newPolicy(t *testing.T, sim *switchflow.Simulation, policy switchflow.Policy) switchflow.Scheduler {
	t.Helper()
	sched, err := sim.NewScheduler(policy)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestPublicAPITrainingJob(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.V100Server())
	sched := newSwitchFlow(t, sim)
	job, err := sched.AddJob(switchflow.JobSpec{
		Name: "train", Model: "ResNet50", Batch: 16, Train: true, Priority: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(5 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.Err())
	}
	// Calibration target: ~226 img/s.
	rate := job.Throughput(5 * time.Second)
	if rate < 140 || rate > 330 {
		t.Fatalf("throughput = %.0f img/s, want ~226", rate)
	}
	if sim.GPUBusy(0) == 0 {
		t.Fatal("GPU idle throughout")
	}
}

func TestPublicAPIServingWithPreemption(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.V100Server())
	sched := newSwitchFlow(t, sim)
	if _, err := sched.AddJob(switchflow.JobSpec{
		Name: "train", Model: "VGG16", Batch: 32, Train: true, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(2 * time.Second)
	serve, err := sched.AddJob(switchflow.JobSpec{
		Name: "serve", Model: "ResNet50", Batch: 1, Priority: 2, ClosedLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunWhile(time.Minute, func() bool { return serve.Requests() < 30 })
	if serve.Requests() < 30 {
		t.Fatalf("only %d requests served", serve.Requests())
	}
	if sched.Preemptions() == 0 {
		t.Fatal("no preemptions")
	}
	if p95 := serve.P95Latency(); p95 > 300*time.Millisecond {
		t.Fatalf("p95 = %v under SwitchFlow, want bounded", p95)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	for _, policy := range []switchflow.Policy{
		switchflow.PolicyThreadedTF,
		switchflow.PolicyTimeSlice,
		switchflow.PolicyMPS,
	} {
		sim := switchflow.NewSimulation(switchflow.V100Server())
		sched := newPolicy(t, sim, policy)
		job, err := sched.AddJob(switchflow.JobSpec{
			Name: "train", Model: "MobileNetV2", Batch: 16, Train: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		sim.RunFor(3 * time.Second)
		if job.Crashed() {
			t.Fatalf("%s: crashed: %v", sched.Name(), job.Err())
		}
		if job.Iterations() == 0 {
			t.Fatalf("%s: no progress", sched.Name())
		}
		sched.StopJob(job)
	}
}

func TestPublicAPISharedGroup(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.V100Server())
	sched := newSwitchFlow(t, sim)
	spec := switchflow.JobSpec{Model: "ResNet50", Batch: 32, Saturated: true}
	a, b := spec, spec
	a.Name, b.Name = "m0", "m1"
	group, err := sched.AddSharedGroup([]switchflow.JobSpec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(20 * time.Second)
	jobs := group.Jobs()
	if jobs[0].Iterations() == 0 {
		t.Fatal("group made no progress")
	}
	if diff := jobs[0].Iterations() - jobs[1].Iterations(); diff < 0 || diff > 1 {
		t.Fatalf("lockstep violated: %d vs %d", jobs[0].Iterations(), jobs[1].Iterations())
	}
	group.Stop()
}

func TestPublicAPIMigration(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.TwoGPUServer())
	sched := newSwitchFlow(t, sim)
	low, err := sched.AddJob(switchflow.JobSpec{
		Name: "low", Model: "ResNet50", Batch: 32, Train: true, Priority: 1,
		Placement: switchflow.Placement{Device: 1, Fallbacks: []int{0}, AllowCPU: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(2 * time.Second)
	if _, err := sched.AddJob(switchflow.JobSpec{
		Name: "high", Model: "VGG16", Batch: 32, Train: true, Priority: 2,
		Placement: switchflow.Placement{Device: 1},
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(20 * time.Second)
	if sched.Migrations() == 0 {
		t.Fatal("no migration")
	}
	if got := sched.JobDeviceName(low); got != "gpu:0" {
		t.Fatalf("low job on %s, want gpu:0", got)
	}
}

func TestPublicAPIValidation(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.V100Server())
	sched := newSwitchFlow(t, sim)
	if _, err := sched.AddJob(switchflow.JobSpec{Name: "x", Model: "NoSuchNet", Batch: 8}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := switchflow.SingleGPU("TPU"); err == nil {
		t.Fatal("unknown GPU accepted")
	}
	if ms, err := switchflow.SingleGPU("V100"); err != nil || ms.Name() != "V100" {
		t.Fatalf("SingleGPU(V100) = %v, %v", ms, err)
	}
}

func TestPublicAPIModelsList(t *testing.T) {
	names := switchflow.Models()
	if len(names) != 12 {
		t.Fatalf("Models() lists %d, want 12", len(names))
	}
}

func TestPublicAPIPoissonServing(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.V100Server())
	sched := newSwitchFlow(t, sim)
	job, err := sched.AddJob(switchflow.JobSpec{
		Name: "s", Model: "ResNet50", Batch: 1,
		ServeEvery: 100 * time.Millisecond, PoissonArrivals: true, ArrivalSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(10 * time.Second)
	if job.Requests() < 50 {
		t.Fatalf("served %d requests at mean 10/s over 10s", job.Requests())
	}
}
