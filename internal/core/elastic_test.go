package core

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/fault"
	"switchflow/internal/obs"
	"switchflow/internal/workload"
)

func elasticCfg(t *testing.T, name, model string, batch, prio int, devs ...device.ID) workload.Config {
	t.Helper()
	cfg := trainCfg(t, name, model, batch, prio, devs[0])
	cfg.VNodes = devs
	return cfg
}

func TestElasticJobSplitsAcrossTwoGPUs(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	job, err := m.AddJob(elasticCfg(t, "train", "ResNet50", 32, 1,
		device.GPUID(0), device.GPUID(1)))
	if err != nil {
		t.Fatal(err)
	}
	if b := job.Binding(); b.Len() != 2 || b.Node(0).Share+b.Node(1).Share != 32 {
		t.Fatalf("binding %v, want 2 vnodes totalling 32", b)
	}
	eng.RunUntil(5 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.CrashErr)
	}
	if job.Iterations < 5 {
		t.Fatalf("elastic job completed %d iterations in 5s, want >= 5", job.Iterations)
	}
	if machine.GPU(0).BusyTime() == 0 || machine.GPU(1).BusyTime() == 0 {
		t.Fatalf("both GPUs should compute shards: busy %v / %v",
			machine.GPU(0).BusyTime(), machine.GPU(1).BusyTime())
	}
	// Two identical V100s should get an even split.
	if s0, s1 := job.Binding().Node(0).Share, job.Binding().Node(1).Share; s0 != 16 || s1 != 16 {
		t.Fatalf("shares (%d, %d), want (16, 16)", s0, s1)
	}
}

func TestElasticJobOutpacesSingleDevice(t *testing.T) {
	run := func(devs ...device.ID) int {
		eng, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
		cfg := trainCfg(t, "train", "ResNet50", 32, 1, devs[0])
		if len(devs) > 1 {
			cfg.VNodes = devs
		}
		job, err := m.AddJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(20 * time.Second)
		if job.Crashed() {
			t.Fatalf("job crashed: %v", job.CrashErr)
		}
		return job.Iterations
	}
	single := run(device.GPUID(0))
	split := run(device.GPUID(0), device.GPUID(1))
	if split <= single {
		t.Fatalf("two-GPU elastic job did %d iterations vs %d on one GPU; splitting should win",
			split, single)
	}
}

func TestElasticGrowAndShrink(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	job, err := m.AddJob(elasticCfg(t, "train", "ResNet50", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	var rec obs.Recorder
	m.bus.Subscribe(&rec, obs.KindResize, obs.KindBind)

	eng.RunUntil(3 * time.Second)
	atGrow := job.Iterations
	if err := m.Resize(job, 2); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(8 * time.Second)
	if job.Binding().Len() != 2 {
		t.Fatalf("binding %v after grow, want 2 vnodes", job.Binding())
	}
	if !job.Binding().Uses(device.GPUID(1)) {
		t.Fatalf("grow should extend onto gpu:1, got %v", job.Binding())
	}
	if job.Iterations <= atGrow {
		t.Fatal("no progress after grow")
	}
	if job.Restarts != 0 {
		t.Fatalf("grow restarted the job %d times", job.Restarts)
	}

	if err := m.Resize(job, 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(12 * time.Second)
	if job.Binding().Len() != 1 {
		t.Fatalf("binding %v after shrink, want 1 vnode", job.Binding())
	}
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.CrashErr)
	}

	var grows, shrinks int
	for _, e := range rec.Events() {
		if e.Kind == obs.KindResize {
			switch e.Name {
			case "grow":
				grows++
			case "shrink":
				shrinks++
			}
		}
	}
	if grows != 1 || shrinks != 1 {
		t.Fatalf("resize events grow=%d shrink=%d, want 1/1", grows, shrinks)
	}
}

func TestElasticResizeValidation(t *testing.T) {
	_, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	ej, err := m.AddJob(elasticCfg(t, "elastic", "MobileNetV2", 8, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	lj, err := m.AddJob(trainCfg(t, "legacy", "MobileNetV2", 8, 1, device.GPUID(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Resize(lj, 2); err == nil {
		t.Fatal("resizing a legacy job should fail")
	}
	if err := m.Resize(ej, 0); err == nil {
		t.Fatal("resizing to 0 vnodes should fail")
	}
	if err := m.Resize(ej, 9); err == nil {
		t.Fatal("more vnodes than batch samples should fail")
	}
	if err := m.RebindJob(lj, 0, device.GPUID(0)); err == nil {
		t.Fatal("rebinding a legacy job should fail")
	}
	if err := m.RebindJob(ej, 5, device.GPUID(1)); err == nil {
		t.Fatal("rebinding an out-of-range vnode should fail")
	}
}

func TestDrainRebindsElasticJobWithoutRestart(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	job, err := m.AddJob(elasticCfg(t, "train", "ResNet50", 32, 1,
		device.GPUID(0), device.GPUID(1)))
	if err != nil {
		t.Fatal(err)
	}
	var rec obs.Recorder
	m.bus.Subscribe(&rec, obs.KindRebind)

	eng.RunUntil(3 * time.Second)
	atDrain := job.Iterations
	if err := m.DrainDevice(device.GPUID(0)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)

	if job.Crashed() {
		t.Fatalf("job crashed during drain: %v", job.CrashErr)
	}
	if job.Binding().Uses(device.GPUID(0)) {
		t.Fatalf("binding %v still uses the drained gpu:0", job.Binding())
	}
	if job.Iterations <= atDrain {
		t.Fatal("no progress after drain rebind")
	}
	if job.Restarts != 0 {
		t.Fatalf("drain restarted the job %d times; rebind must be restart-free", job.Restarts)
	}
	if !machine.GPU(0).Draining() {
		t.Fatal("gpu:0 should be marked draining")
	}
	var rebinds int
	for _, e := range rec.Events() {
		if e.Kind == obs.KindRebind && e.Name == "drain" {
			rebinds++
		}
	}
	if rebinds == 0 {
		t.Fatal("no drain rebind events emitted")
	}

	busyAtDrain := machine.GPU(0).BusyTime()
	eng.RunUntil(15 * time.Second)
	if got := machine.GPU(0).BusyTime(); got != busyAtDrain {
		t.Fatalf("drained GPU kept computing: busy %v -> %v", busyAtDrain, got)
	}
}

func TestDrainMigratesLegacyJob(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3 * time.Second)
	if err := m.DrainDevice(device.GPUID(0)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed during drain: %v", job.CrashErr)
	}
	if got := m.JobDevice(job); got != device.GPUID(1) {
		t.Fatalf("legacy job on %v after drain, want gpu:1", got)
	}
	if job.Restarts != 0 {
		t.Fatalf("graceful drain restarted the job %d times", job.Restarts)
	}
	if m.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", m.Migrations)
	}
}

func TestDeviceLossHealsElasticJobWithoutRestart(t *testing.T) {
	eng, _, m := newHarness(t, Options{CheckpointEvery: 2 * time.Second},
		device.ClassV100, device.ClassV100)
	job, err := m.AddJob(elasticCfg(t, "train", "ResNet50", 32, 1,
		device.GPUID(0), device.GPUID(1)))
	if err != nil {
		t.Fatal(err)
	}
	var p fault.Plan
	p.LoseGPU(5*time.Second, 0)
	in := fault.NewInjector(eng, m.machine, p)
	in.Attach(m)
	in.Arm()

	eng.RunUntil(5*time.Second + time.Millisecond)
	atLoss := job.Iterations

	eng.RunUntil(20 * time.Second)
	if job.Crashed() {
		t.Fatalf("elastic job crashed on device loss: %v", job.CrashErr)
	}
	if job.Binding().Uses(device.GPUID(0)) {
		t.Fatalf("binding %v still uses the lost gpu:0", job.Binding())
	}
	if job.Iterations <= atLoss {
		t.Fatalf("no progress after healing: %d at loss, %d at end", atLoss, job.Iterations)
	}
	if job.Restarts != 0 {
		t.Fatalf("Restarts = %d; replica healing must not restart", job.Restarts)
	}
	if m.RecoveryLatencies.Count() != 1 {
		t.Fatalf("recovery latencies recorded %d times, want 1", m.RecoveryLatencies.Count())
	}
}

func TestDeviceLossCrashesElasticJobWithNoTargets(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(elasticCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	var p fault.Plan
	p.LoseGPU(2*time.Second, 0)
	in := fault.NewInjector(eng, m.machine, p)
	in.Attach(m)
	in.Arm()

	eng.RunUntil(10 * time.Second)
	if !job.Crashed() {
		t.Fatal("single-GPU elastic job survived losing its only device")
	}
	if m.FaultCounters().JobsLost != 1 {
		t.Fatalf("JobsLost = %d, want 1", m.FaultCounters().JobsLost)
	}
}

func TestElasticPreemptionSuspendsOnlyContendedShard(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	low, err := m.AddJob(elasticCfg(t, "low", "ResNet50", 32, 1,
		device.GPUID(0), device.GPUID(1)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second)
	hi, err := m.AddJob(trainCfg(t, "hi", "MobileNetV2", 16, 9, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(12 * time.Second)
	if low.Crashed() || hi.Crashed() {
		t.Fatalf("crash: low=%v hi=%v", low.CrashErr, hi.CrashErr)
	}
	if hi.Iterations == 0 {
		t.Fatal("high-priority job never ran on the contended GPU")
	}
	if low.Iterations == 0 {
		t.Fatal("elastic victim made no progress at all")
	}
	if m.Preemptions == 0 {
		t.Fatal("no preemption recorded")
	}
	if machine.GPU(1).BusyTime() == 0 {
		t.Fatal("uncontended sibling shard never computed")
	}
	// The binding must be untouched: preemption never rebinds.
	if b := low.Binding(); b.Len() != 2 || !b.Uses(device.GPUID(0)) || !b.Uses(device.GPUID(1)) {
		t.Fatalf("preemption changed the binding: %v", b)
	}
}

func TestElasticTransientHealsFromSiblingReplica(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	job, err := m.AddJob(elasticCfg(t, "train", "ResNet50", 32, 1,
		device.GPUID(0), device.GPUID(1)))
	if err != nil {
		t.Fatal(err)
	}
	var p fault.Plan
	p.Transient(4*time.Second, 0)
	in := fault.NewInjector(eng, m.machine, p)
	in.Attach(m)
	in.Arm()

	eng.RunUntil(20 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.CrashErr)
	}
	if job.Restarts != 0 {
		t.Fatalf("Restarts = %d; a sibling replica should heal transients without restart", job.Restarts)
	}
	if m.RecoveryLatencies.Count() != 1 {
		t.Fatalf("recovery latencies recorded %d times, want 1", m.RecoveryLatencies.Count())
	}
	if job.Iterations < 5 {
		t.Fatalf("only %d iterations after transient healing", job.Iterations)
	}
}

func TestElasticRejectsGroupMembership(t *testing.T) {
	_, _, m := newHarness(t, Options{}, device.ClassV100)
	a := trainCfg(t, "a", "MobileNetV2", 8, 1, device.GPUID(0))
	a.VNodes = []device.ID{device.GPUID(0)}
	b := trainCfg(t, "b", "MobileNetV2", 8, 1, device.GPUID(0))
	if _, _, err := m.AddSharedGroup([]workload.Config{a, b}); err == nil {
		t.Fatal("shared group accepted an elastic member")
	}
}

// A fault that strikes while a rebind's replica copy is in flight makes
// the copy stale; the replica the rebind dropped must still be freed when
// the copy lands, or the job holds memory on a device it no longer binds.
func TestFaultDuringRebindFreesDroppedReplica(t *testing.T) {
	for _, kind := range []fault.Kind{fault.KindTransient, fault.KindDeviceLost} {
		t.Run(kind.String(), func(t *testing.T) {
			eng, machine, m := newHarness(t, Options{},
				device.ClassV100, device.ClassV100, device.ClassV100)
			job := mustAdd(t, m, elasticCfg(t, "train", "ResNet50", 32, 1, device.GPUID(0), device.GPUID(1)))
			m.bus.Subscribe(obs.SinkFunc(func(obs.Event) {
				var p fault.Plan
				if kind == fault.KindTransient {
					p.Transient(eng.Now()+time.Microsecond, 0)
				} else {
					p.LoseGPU(eng.Now()+time.Microsecond, 0)
				}
				arm(eng, m, p)
			}), obs.KindRebind)
			at(t, eng, time.Second, func() error { return m.RebindJob(job, 1, device.GPUID(2)) })
			eng.RunUntil(10 * time.Second)
			if job.Crashed() {
				t.Fatalf("job crashed: %v", job.CrashErr)
			}
			gpu1 := device.GPUID(1)
			if job.Binding().Uses(gpu1) {
				t.Fatalf("binding %v still uses %v", job.Binding(), gpu1)
			}
			if job.WeightsOn(gpu1) || machine.GPU(1).Mem.Used() != 0 {
				t.Fatalf("%v still holds %d B (weights resident: %v) after the rebind left it",
					gpu1, machine.GPU(1).Mem.Used(), job.WeightsOn(gpu1))
			}
		})
	}
}
