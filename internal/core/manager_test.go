package core

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/models"
	"switchflow/internal/sim"
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

func newHarness(t *testing.T, opts Options, gpus ...device.GPUClass) (*sim.Engine, *device.Machine, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, gpus...)
	return eng, machine, NewManager(eng, machine, opts)
}

func trainCfg(t *testing.T, name, model string, batch, prio int, dev device.ID) workload.Config {
	return workload.Config{
		Name:     name,
		Model:    spec(t, model),
		Batch:    batch,
		Kind:     workload.KindTraining,
		Priority: prio,
		Device:   dev,
	}
}

func TestSingleTrainingJobProgresses(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "MobileNetV2", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.CrashErr)
	}
	if job.Iterations < 5 {
		t.Fatalf("job completed %d iterations in 5s, want >= 5", job.Iterations)
	}
	if machine.GPU(0).BusyTime() == 0 {
		t.Fatal("GPU never ran a kernel")
	}
}

func TestWeightsResideOnPreferredDevice(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !job.WeightsOn(device.GPUID(0)) {
		t.Fatal("weights not allocated on gpu:0 at admission")
	}
	if machine.GPU(0).Mem.Used() < job.WeightBytes() {
		t.Fatalf("GPU memory %d below weight bytes %d", machine.GPU(0).Mem.Used(), job.WeightBytes())
	}
	eng.RunUntil(time.Second)
}

func TestTwoTrainingJobsInterleaveWithoutOOM(t *testing.T) {
	// Two NASNetLarge-class jobs would OOM under free sharing; under
	// SwitchFlow's exclusivity only one intermediate footprint is live at
	// a time, so both make progress (§3.4).
	eng, _, m := newHarness(t, Options{}, device.ClassRTX2080Ti)
	a, err := m.AddJob(trainCfg(t, "a", "NASNetLarge", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AddJob(trainCfg(t, "b", "NASNetLarge", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(60 * time.Second)
	if a.Crashed() || b.Crashed() {
		t.Fatalf("crashes: a=%v b=%v", a.CrashErr, b.CrashErr)
	}
	if a.Iterations == 0 || b.Iterations == 0 {
		t.Fatalf("iterations a=%d b=%d, both must progress", a.Iterations, b.Iterations)
	}
	// Fair interleaving: neither job starves.
	ratio := float64(a.Iterations) / float64(b.Iterations)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("unfair interleaving: a=%d b=%d", a.Iterations, b.Iterations)
	}
}

func TestAdmissionFailsWhenWeightsDoNotFit(t *testing.T) {
	// Aggregate persistent state must fit (§3.4). VGG16 training state is
	// ~1 GiB; 11 jobs exceed the 2080 Ti's 11 GiB budget well before the
	// memory pool does the math for us.
	eng, _, m := newHarness(t, Options{}, device.ClassRTX2080Ti)
	var admitted int
	for i := 0; i < 16; i++ {
		_, err := m.AddJob(trainCfg(t, "vgg", "VGG16", 8, 1, device.GPUID(0)))
		if err != nil {
			break
		}
		admitted++
	}
	if admitted >= 16 {
		t.Fatal("admission never failed; OOM contract not enforced")
	}
	if admitted < 5 {
		t.Fatalf("only %d VGG16 jobs admitted on 11 GiB", admitted)
	}
	eng.RunUntil(time.Millisecond)
}

func TestServingJobRecordsLatencies(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(workload.Config{
		Name:         "serve",
		Model:        spec(t, "ResNet50"),
		Batch:        1,
		Kind:         workload.KindServing,
		Priority:     2,
		Device:       device.GPUID(0),
		ArrivalEvery: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	if job.Latencies.Count() < 10 {
		t.Fatalf("served %d requests in 5s at 5 req/s, want >= 10", job.Latencies.Count())
	}
	// Solo BS=1 latency: preprocess (~50ms) + H2D + compute; comfortably
	// under 200ms.
	if p95 := job.Latencies.Percentile(95); p95 > 200*time.Millisecond {
		t.Fatalf("solo p95 = %v, want < 200ms", p95)
	}
}

func TestHighPriorityPreemptsTraining(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	train, err := m.AddJob(trainCfg(t, "train", "VGG16", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	serve, err := m.AddJob(workload.Config{
		Name:         "serve",
		Model:        spec(t, "ResNet50"),
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
		t.Fatal("no preemptions occurred")
	}
	if serve.Latencies.Count() < 20 {
		t.Fatalf("served %d requests, want >= 20", serve.Latencies.Count())
	}
	// VGG16 BS=32 training steps take ~300ms; without preemption p95
	// would absorb whole steps. With preemption the wait is bounded by
	// one in-flight kernel.
	p95 := serve.Latencies.Percentile(95)
	if p95 > 250*time.Millisecond {
		t.Fatalf("p95 with preemption = %v, want < 250ms", p95)
	}
	if train.Iterations == 0 {
		t.Fatal("preempted training job never progressed")
	}
	if train.Crashed() || serve.Crashed() {
		t.Fatalf("crashes: train=%v serve=%v", train.CrashErr, serve.CrashErr)
	}
}

func TestPreemptionLatencyBoundedByInflightKernel(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	if _, err := m.AddJob(trainCfg(t, "train", "ResNet50", 32, 1, device.GPUID(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob(workload.Config{
		Name:         "serve",
		Model:        spec(t, "MobileNetV2"),
		Batch:        1,
		Kind:         workload.KindServing,
		Priority:     2,
		Device:       device.GPUID(0),
		ArrivalEvery: 500 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)
	if m.Preemptions == 0 {
		t.Fatal("no preemptions")
	}
	// §5.2.3: worst-case preemption latency is a few tens of ms (one
	// outstanding kernel).
	if p := m.PreemptionLatencies.Max(); p > 60*time.Millisecond {
		t.Fatalf("max acquire latency = %v, want <= 60ms", p)
	}
}

func TestPreemptedJobMigratesToSecondGPU(t *testing.T) {
	eng, machine, m := newHarness(t, Options{},
		device.ClassRTX2080Ti, device.ClassGTX1080Ti)
	low, err := m.AddJob(workload.Config{
		Name:      "low",
		Model:     spec(t, "ResNet50"),
		Batch:     32,
		Kind:      workload.KindTraining,
		Priority:  1,
		Device:    device.GPUID(0),
		Fallbacks: []device.ID{device.GPUID(1), device.CPUID},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second) // low-priority job warms up on gpu:0
	high, err := m.AddJob(trainCfg(t, "high", "VGG16", 32, 2, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30 * time.Second)
	if m.Migrations == 0 {
		t.Fatal("no migration happened")
	}
	if got := m.JobDevice(low); got != device.GPUID(1) {
		t.Fatalf("low-priority job on %v, want gpu:1", got)
	}
	if !low.WeightsOn(device.GPUID(1)) {
		t.Fatal("weights not resident on migration target")
	}
	if low.WeightsOn(device.GPUID(0)) {
		t.Fatal("weights still retained on source after transfer")
	}
	if low.Iterations < 2 {
		t.Fatalf("migrated job made %d iterations, want >= 2", low.Iterations)
	}
	if high.Iterations < 2 {
		t.Fatalf("preempter made %d iterations, want >= 2", high.Iterations)
	}
	// Weight bytes moved across the peer link.
	if machine.Peer().Transferred() < low.WeightBytes() {
		t.Fatalf("peer link moved %d bytes, want >= %d",
			machine.Peer().Transferred(), low.WeightBytes())
	}
}

func TestPreemptedJobFallsBackToCPU(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassRTX2080Ti)
	low, err := m.AddJob(workload.Config{
		Name:      "low",
		Model:     spec(t, "MobileNetV2"),
		Batch:     8,
		Kind:      workload.KindTraining,
		Priority:  1,
		Device:    device.GPUID(0),
		Fallbacks: []device.ID{device.CPUID},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	if _, err := m.AddJob(trainCfg(t, "high", "ResNet50", 32, 2, device.GPUID(0))); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(120 * time.Second)
	if got := m.JobDevice(low); got != device.CPUID {
		t.Fatalf("low job on %v, want cpu:0", got)
	}
	if low.Iterations < 1 {
		t.Fatal("CPU-migrated job made no progress")
	}
	gpuIters := low.Iterations
	// CPU training (4 temp-pool threads with MKL intra-op parallelism) is
	// drastically slower than GPU (Figure 7 d) but not frozen.
	eng.RunUntil(240 * time.Second)
	cpuRate := float64(low.Iterations-gpuIters) / 120
	if cpuRate > 8 {
		t.Fatalf("CPU iteration rate %.2f/s implausibly fast", cpuRate)
	}
	if cpuRate < 0.2 {
		t.Fatalf("CPU iteration rate %.2f/s implausibly slow", cpuRate)
	}
}

// iterations returns the completed iteration count of each group member.
func iterations(g *Group) []int {
	counts := make([]int, len(g.members))
	for i, js := range g.members {
		counts[i] = js.job.Iterations
	}
	return counts
}

func TestSharedInputGroupLockstep(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	cfg := func(name string) workload.Config {
		return workload.Config{
			Name:   name,
			Model:  spec(t, "ResNet50"),
			Batch:  32,
			Kind:   workload.KindServing,
			Device: device.GPUID(0),
		}
	}
	group, jobs, err := m.AddSharedGroup([]workload.Config{cfg("m0"), cfg("m1")})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30 * time.Second)
	counts := iterations(group)
	if counts[0] == 0 {
		t.Fatal("group made no progress")
	}
	if diff := counts[0] - counts[1]; diff < 0 || diff > 1 {
		t.Fatalf("lockstep violated: iterations %v", counts)
	}
	for _, job := range jobs {
		if job.Crashed() {
			t.Fatalf("group member crashed: %v", job.CrashErr)
		}
	}
}

// TestPreemptedGroupMemberKeepsLockstep: a high-priority server that
// preempts a shared-group member must not break the group's lockstep. The
// member suspends, the group re-acquires the GPU in its turn, and the
// member resumes there — it never runs an input stage of its own.
func TestPreemptedGroupMemberKeepsLockstep(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	group, members, err := m.AddSharedGroup([]workload.Config{
		trainCfg(t, "m0", "MobileNetV2", 16, 1, device.GPUID(0)),
		trainCfg(t, "m1", "MobileNetV2", 16, 1, device.GPUID(0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	serve, err := m.AddJob(workload.Config{
		Name: "serve", Model: spec(t, "ResNet50"), Batch: 1,
		Kind: workload.KindServing, Priority: 2, Device: device.GPUID(0),
		ArrivalEvery: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ownInputs := 0
	for at := 10 * time.Millisecond; at <= 10*time.Second; at += 10 * time.Millisecond {
		eng.Schedule(at, func() {
			for _, j := range members {
				ownInputs += j.InputsInFlight
			}
		})
	}
	eng.RunUntil(10 * time.Second)
	if m.Preemptions == 0 {
		t.Fatal("the server never preempted a group member")
	}
	if serve.Latencies.Count() == 0 {
		t.Fatal("the server completed no requests")
	}
	counts := iterations(group)
	t.Logf("iterations %v, %d preemptions, %d requests", counts, m.Preemptions, serve.Latencies.Count())
	if counts[0] == 0 {
		t.Fatal("group made no progress")
	}
	if diff := counts[0] - counts[1]; diff < -1 || diff > 1 {
		t.Fatalf("lockstep violated under preemption: iterations %v", counts)
	}
	if ownInputs != 0 {
		t.Fatalf("group members ran their own input stages (%d in-flight samples)", ownInputs)
	}
}

// TestCPUGroupLeavesGPUArbiterAlone: a shared group placed on the CPU
// runs its turns without a GPU grant, so it never takes gpu:0's arbiter
// (device.CPUID's Index is 0 too) and a trainer on gpu:0 makes as many
// steps as it does alone.
func TestCPUGroupLeavesGPUArbiterAlone(t *testing.T) {
	const window = 6 * time.Second
	trainer := trainCfg(t, "train", "ResNet50", 32, 2, device.GPUID(0))
	soloEng, _, solo := newHarness(t, Options{}, device.ClassV100)
	soloJob, err := solo.AddJob(trainer)
	if err != nil {
		t.Fatal(err)
	}
	soloEng.RunUntil(window)

	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	group := addCPUGroup(t, m)
	job, err := m.AddJob(trainer)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(window)
	if counts := iterations(group); counts[0] == 0 {
		t.Fatal("CPU group made no progress")
	}
	if job.Iterations != soloJob.Iterations {
		t.Fatalf("trainer made %d steps beside the CPU group, %d alone", job.Iterations, soloJob.Iterations)
	}
	if owner := m.arbs[0].owner; owner != nil && owner.group == group {
		t.Fatalf("group member %s owns gpu:0's arbiter", owner.job.Cfg.Name)
	}
}

// addCPUGroup admits a shared group of two saturated MobileNetV2 batch-8
// servers placed on the CPU.
func addCPUGroup(t *testing.T, m *Manager) *Group {
	t.Helper()
	member := func(name string) workload.Config {
		return workload.Config{
			Name: name, Model: spec(t, "MobileNetV2"), Batch: 8,
			Kind: workload.KindServing, Device: device.CPUID,
		}
	}
	group, _, err := m.AddSharedGroup([]workload.Config{member("m0"), member("m1")})
	if err != nil {
		t.Fatal(err)
	}
	return group
}

func TestSharedGroupRejectsMismatchedMembers(t *testing.T) {
	_, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	a := workload.Config{Name: "a", Model: spec(t, "ResNet50"), Batch: 32,
		Kind: workload.KindServing, Device: device.GPUID(0)}
	b := a
	b.Device = device.GPUID(1)
	if _, _, err := m.AddSharedGroup([]workload.Config{a, b}); err == nil {
		t.Fatal("cross-device group accepted")
	}
	c := a
	c.Batch = 64
	if _, _, err := m.AddSharedGroup([]workload.Config{a, c}); err == nil {
		t.Fatal("mismatched batch group accepted")
	}
	if _, _, err := m.AddSharedGroup([]workload.Config{a}); err == nil {
		t.Fatal("singleton group accepted")
	}
}

func TestStopJobHaltsProgress(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "MobileNetV2", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second)
	m.StopJob(job)
	at := job.Iterations
	eng.RunUntil(10 * time.Second)
	if job.Iterations > at+2 {
		t.Fatalf("stopped job kept iterating: %d -> %d", at, job.Iterations)
	}
}
