package baseline

import (
	"errors"
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

func trainCfg(t *testing.T, name, model string, batch int, dev device.ID) workload.Config {
	return workload.Config{
		Name:   name,
		Model:  spec(t, model),
		Batch:  batch,
		Kind:   workload.KindTraining,
		Device: dev,
	}
}

func newMachine(gpus ...device.GPUClass) (*sim.Engine, *device.Machine) {
	eng := sim.NewEngine()
	return eng, device.NewMachine(eng, device.ClassXeonDual, gpus...)
}

func TestThreadedTFSoloJobProgresses(t *testing.T) {
	eng, machine := newMachine(device.ClassV100)
	s := New(eng, machine, ThreadedTF)
	job, err := s.AddJob(trainCfg(t, "solo", "ResNet50", 16, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	if job.Crashed() {
		t.Fatalf("solo job crashed: %v", job.CrashErr)
	}
	// Calibration: solo ResNet50 BS=16 on V100 ~ 226 img/s (±40%).
	rate := float64(job.Iterations*16) / 5
	if rate < 140 || rate > 330 {
		t.Fatalf("solo throughput = %.0f img/s, want ~226", rate)
	}
}

func TestThreadedTFCoRunSlowsBothDown(t *testing.T) {
	// Figure 2: two ResNet50s sharing a V100 drop from 226 to ~116 img/s
	// each.
	eng, machine := newMachine(device.ClassV100)
	s := New(eng, machine, ThreadedTF)
	a, _ := s.AddJob(trainCfg(t, "a", "ResNet50", 16, device.GPUID(0)))
	b, _ := s.AddJob(trainCfg(t, "b", "ResNet50", 16, device.GPUID(0)))
	eng.RunUntil(10 * time.Second)
	if a.Crashed() || b.Crashed() {
		t.Fatalf("crashes: %v / %v", a.CrashErr, b.CrashErr)
	}
	rateA := float64(a.Iterations*16) / 10
	rateB := float64(b.Iterations*16) / 10
	for _, rate := range []float64{rateA, rateB} {
		if rate < 75 || rate > 165 {
			t.Fatalf("co-run throughput = %.0f img/s, want ~116", rate)
		}
	}
}

func TestThreadedTFCoRunOOMKillsBigModels(t *testing.T) {
	// Figure 7 a: freely co-running two large models on an 11 GB GPU dies
	// of OOM when their combined live memory peaks.
	eng, machine := newMachine(device.ClassGTX1080Ti)
	s := New(eng, machine, ThreadedTF)
	a, _ := s.AddJob(trainCfg(t, "a", "NASNetLarge", 32, device.GPUID(0)))
	b, _ := s.AddJob(trainCfg(t, "b", "ResNet50", 32, device.GPUID(0)))
	eng.RunUntil(30 * time.Second)
	if !a.Crashed() && !b.Crashed() {
		t.Fatal("no OOM crash when NASNetLarge+ResNet50 share 11 GB")
	}
	var oom *device.OOMError
	crashed := a
	if b.Crashed() {
		crashed = b
	}
	if !errors.As(crashed.CrashErr, &oom) {
		t.Fatalf("crash was not OOM: %v", crashed.CrashErr)
	}
}

func TestTimeSliceAlternatesJobs(t *testing.T) {
	eng, machine := newMachine(device.ClassV100)
	s := New(eng, machine, TimeSlice)
	a, _ := s.AddJob(trainCfg(t, "a", "ResNet50", 32, device.GPUID(0)))
	b, _ := s.AddJob(trainCfg(t, "b", "ResNet50", 32, device.GPUID(0)))
	eng.RunUntil(20 * time.Second)
	if a.Crashed() || b.Crashed() {
		t.Fatalf("crashes: %v / %v", a.CrashErr, b.CrashErr)
	}
	if a.Iterations == 0 || b.Iterations == 0 {
		t.Fatalf("iterations a=%d b=%d", a.Iterations, b.Iterations)
	}
	if diff := a.Iterations - b.Iterations; diff < -1 || diff > 1 {
		t.Fatalf("round-robin violated: a=%d b=%d", a.Iterations, b.Iterations)
	}
}

func TestTimeSliceNeverOOMs(t *testing.T) {
	eng, machine := newMachine(device.ClassGTX1080Ti)
	s := New(eng, machine, TimeSlice)
	a, _ := s.AddJob(trainCfg(t, "a", "NASNetLarge", 32, device.GPUID(0)))
	b, _ := s.AddJob(trainCfg(t, "b", "ResNet50", 32, device.GPUID(0)))
	eng.RunUntil(60 * time.Second)
	if a.Crashed() || b.Crashed() {
		t.Fatalf("time slicing crashed: %v / %v", a.CrashErr, b.CrashErr)
	}
	if a.Iterations == 0 || b.Iterations == 0 {
		t.Fatalf("iterations a=%d b=%d", a.Iterations, b.Iterations)
	}
}

func TestTimeSliceSerializesPipeline(t *testing.T) {
	// Under time slicing a job's CPU input never overlaps another job's
	// GPU compute, so two inference jobs take ~sum of stage times. The
	// interleaving gain of Figure 10 comes from removing exactly this.
	eng, machine := newMachine(device.ClassV100)
	s := New(eng, machine, TimeSlice)
	cfg := workload.Config{
		Name:   "infer",
		Model:  spec(t, "MobileNetV2"),
		Batch:  128,
		Kind:   workload.KindServing,
		Device: device.GPUID(0),
		// Saturating request stream.
		ArrivalEvery: time.Millisecond,
	}
	a, _ := s.AddJob(cfg)
	cfg.Name = "infer2"
	b, _ := s.AddJob(cfg)
	eng.RunUntil(10 * time.Second)
	total := a.Iterations + b.Iterations
	if total == 0 {
		t.Fatal("no progress")
	}
	// Each session is roughly CPU stage (~200ms for 128 images across 36
	// workers) + GPU stage; serialized sessions mean < ~50 sessions in
	// 10 s. (SwitchFlow overlaps them; see experiments.)
	if total > 60 {
		t.Fatalf("time slicing finished %d sessions in 10s, too fast for a serialized pipeline", total)
	}
}

func TestMPSCrashesOn11GBFitsOnV100(t *testing.T) {
	// Figure 7 c: two training processes under MPS need their combined
	// peak reserved; 11 GB fails, the 32 GB V100 fits.
	eng, machine := newMachine(device.ClassRTX2080Ti)
	s := New(eng, machine, MPS)
	a, _ := s.AddJob(trainCfg(t, "a", "ResNet50", 32, device.GPUID(0)))
	b, _ := s.AddJob(trainCfg(t, "b", "VGG16", 32, device.GPUID(0)))
	eng.RunUntil(time.Second)
	if !a.Crashed() && !b.Crashed() {
		t.Fatal("MPS fit two training reservations in 11 GB")
	}

	eng2, machine2 := newMachine(device.ClassV100)
	s2 := New(eng2, machine2, MPS)
	c, _ := s2.AddJob(trainCfg(t, "c", "ResNet50", 16, device.GPUID(0)))
	d, _ := s2.AddJob(trainCfg(t, "d", "ResNet50", 16, device.GPUID(0)))
	eng2.RunUntil(10 * time.Second)
	if c.Crashed() || d.Crashed() {
		t.Fatalf("MPS crashed on V100: %v / %v", c.CrashErr, d.CrashErr)
	}
	if c.Iterations == 0 || d.Iterations == 0 {
		t.Fatalf("MPS iterations c=%d d=%d", c.Iterations, d.Iterations)
	}
	// Both slowed by contention, like threaded TF.
	rate := float64(c.Iterations*16) / 10
	if rate < 75 || rate > 165 {
		t.Fatalf("MPS co-run throughput %.0f img/s, want ~116", rate)
	}
}

func TestServingUnderThreadedTFSuffersLongTails(t *testing.T) {
	// The Figure 6 baseline: a BS=1 inference stream co-running freely
	// with VGG16 training sees its kernels contend with training kernels.
	eng, machine := newMachine(device.ClassV100)
	s := New(eng, machine, ThreadedTF)
	if _, err := s.AddJob(trainCfg(t, "train", "VGG16", 32, device.GPUID(0))); err != nil {
		t.Fatal(err)
	}
	serve, err := s.AddJob(workload.Config{
		Name:         "serve",
		Model:        spec(t, "ResNet50"),
		Batch:        1,
		Kind:         workload.KindServing,
		Device:       device.GPUID(0),
		ArrivalEvery: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(15 * time.Second)
	if serve.Latencies.Count() < 10 {
		t.Fatalf("served %d requests", serve.Latencies.Count())
	}
	// Solo inference latency is well under 100ms; contention should blow
	// this up severely.
	if p95 := serve.Latencies.Percentile(95); p95 < 150*time.Millisecond {
		t.Fatalf("threaded-TF p95 = %v, expected severe contention", p95)
	}
}

func TestStopJobStopsBaselines(t *testing.T) {
	eng, machine := newMachine(device.ClassV100)
	s := New(eng, machine, ThreadedTF)
	job, _ := s.AddJob(trainCfg(t, "x", "MobileNetV2", 16, device.GPUID(0)))
	eng.RunUntil(2 * time.Second)
	s.StopJob(job)
	at := job.Iterations
	eng.RunUntil(6 * time.Second)
	if job.Iterations > at+2 {
		t.Fatalf("stopped job kept iterating: %d -> %d", at, job.Iterations)
	}
	if got := machine.GPU(0).Mem.Used(); got != 0 {
		t.Fatalf("stopped job still holds %d bytes", got)
	}
}

func TestMPSStopReleasesReservation(t *testing.T) {
	// A stopped MPS process exits: its weights, intermediates and allocator
	// headroom go back to the pool once its in-flight step finishes.
	eng, machine := newMachine(device.ClassV100)
	s := New(eng, machine, MPS)
	job, _ := s.AddJob(trainCfg(t, "x", "ResNet50", 16, device.GPUID(0)))
	eng.RunUntil(2 * time.Second)
	if job.Crashed() {
		t.Fatalf("MPS process died: %v", job.CrashErr)
	}
	s.StopJob(job)
	eng.RunUntil(4 * time.Second)
	if got := machine.GPU(0).Mem.Used(); got != 0 {
		t.Fatalf("stopped MPS process still reserves %d bytes", got)
	}
}

func TestTimeSliceReleasesMachineWhenSessionOOMs(t *testing.T) {
	// NASNetLarge's weights fit the 11 GB GPU but its first compute launch
	// does not: the OOM must end its session, or the dead job holds the
	// machine and every other job starves.
	eng, machine := newMachine(device.ClassGTX1080Ti, device.ClassRTX2080Ti)
	s := New(eng, machine, TimeSlice)
	big, err := s.AddJob(trainCfg(t, "big", "NASNetLarge", 48, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := s.AddJob(trainCfg(t, "survivor", "ResNet50", 32, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30 * time.Second)
	var oom *device.OOMError
	if !errors.As(big.CrashErr, &oom) {
		t.Fatalf("NASNetLarge BS=48 did not OOM: %v", big.CrashErr)
	}
	if survivor.Crashed() || survivor.Iterations == 0 {
		t.Fatalf("survivor starved after the session's job OOMed: crashed=%v iterations=%d",
			survivor.Crashed(), survivor.Iterations)
	}
}

func TestTimeSliceHasNoPreemption(t *testing.T) {
	// The paper's "second TF variant": session-based time slicing with a
	// high-priority inference job still makes requests wait out the
	// current training session — no preemption exists (§5.2.1).
	eng, machine := newMachine(device.ClassV100)
	s := New(eng, machine, TimeSlice)
	train, err := s.AddJob(trainCfg(t, "train", "VGG16", 32, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second)
	serve, err := s.AddJob(workload.Config{
		Name: "serve", Model: spec(t, "ResNet50"), Batch: 1,
		Kind: workload.KindServing, Priority: 2, Device: device.GPUID(0),
		ClosedLoop: true, PerImageCPU: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(20 * time.Second)
	if serve.Latencies.Count() < 5 {
		t.Fatalf("served %d requests", serve.Latencies.Count())
	}
	// A VGG16 training session is ~600ms+ (input + compute); worst-case
	// inference waits a full session, so the max latency must absorb at
	// least a large fraction of one.
	if max := serve.Latencies.Max(); max < 300*time.Millisecond {
		t.Fatalf("max latency %v; time slicing should make requests wait out sessions", max)
	}
	if train.Iterations == 0 {
		t.Fatal("training starved under round-robin time slicing")
	}
}

func TestNMTRunsEndToEnd(t *testing.T) {
	// The RNN path: 120 sequential LSTM cells + attention + projections.
	eng, machine := newMachine(device.ClassV100)
	s := New(eng, machine, ThreadedTF)
	job, err := s.AddJob(workload.Config{
		Name: "nmt", Model: spec(t, "NMT"), Batch: 1,
		Kind: workload.KindServing, Device: device.GPUID(0),
		ClosedLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	if job.Crashed() {
		t.Fatalf("NMT crashed: %v", job.CrashErr)
	}
	if job.Latencies.Count() < 10 {
		t.Fatalf("NMT served %d requests in 5s", job.Latencies.Count())
	}
	// "RNN inference itself is fairly expensive on GPU" (§5.2.1): the
	// long kernel chain costs several ms even solo.
	if mean := job.Latencies.Mean(); mean < time.Millisecond {
		t.Fatalf("NMT mean latency %v implausibly fast", mean)
	}
}
