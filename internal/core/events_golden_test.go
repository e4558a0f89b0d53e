package core

import (
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strings"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/fault"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

var updateEvents = flag.Bool("update", false, "rewrite testdata/events.golden from the current scheduler")

const eventsGolden = "testdata/events.golden"

// eventDigest folds every bus event, in emit order, into an FNV-64a hash.
type eventDigest struct {
	h      hash.Hash64
	events int
}

func (d *eventDigest) Observe(e obs.Event) {
	d.events++
	fmt.Fprintf(d.h, "%d|%d|%d|%d|%s|%s|%s|%s|%d|%d|%d\n",
		e.Seq, e.Time, e.Kind, e.Ctx, e.Job, e.Device, e.From, e.Name, e.Start, e.Dur, e.Count)
}

// goldenScenario is one short, fully deterministic scheduler run.
type goldenScenario struct {
	name   string
	opts   Options
	nvlink bool // the 4x V100 NVLink server instead of gpus
	gpus   []device.GPUClass
	run    func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job
}

func mustAdd(t *testing.T, m *Manager, cfg workload.Config) *workload.Job {
	t.Helper()
	job, err := m.AddJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// at schedules fn at virtual time d, failing the test on error.
func at(t *testing.T, eng *sim.Engine, d time.Duration, fn func() error) {
	eng.Schedule(d, func() {
		if err := fn(); err != nil {
			t.Error(err)
		}
	})
}

func arm(eng *sim.Engine, m *Manager, p fault.Plan) {
	in := fault.NewInjector(eng, m.machine, p)
	in.Attach(m)
	in.Arm()
}

// preemptMigrate: a plain VGG16 trainer is preempted by ResNet50 and
// migrates to its GPU fallback.
func preemptMigrate(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
	low := trainCfg(t, "vgg16", "VGG16", 32, 1, device.GPUID(0))
	low.Fallbacks = []device.ID{device.GPUID(1), device.CPUID}
	a := mustAdd(t, m, low)
	eng.RunUntil(700 * time.Millisecond)
	b := mustAdd(t, m, trainCfg(t, "resnet50", "ResNet50", 32, 2, device.GPUID(0)))
	eng.RunUntil(3 * time.Second)
	return []*workload.Job{a, b}
}

// preemptMigrateCPU: the same preemption with the host as the only
// fallback, so the victim's weights move device-to-host.
func preemptMigrateCPU(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
	low := trainCfg(t, "vgg16", "VGG16", 32, 1, device.GPUID(0))
	low.Fallbacks = []device.ID{device.CPUID}
	a := mustAdd(t, m, low)
	eng.RunUntil(700 * time.Millisecond)
	b := mustAdd(t, m, trainCfg(t, "resnet50", "ResNet50", 32, 2, device.GPUID(0)))
	eng.RunUntil(3 * time.Second)
	return []*workload.Job{a, b}
}

func servingCfg(t *testing.T, name, model string, prio int, every time.Duration) workload.Config {
	return workload.Config{
		Name: name, Model: spec(t, model), Batch: 1, Kind: workload.KindServing,
		Priority: prio, Device: device.GPUID(0), ArrivalEvery: every,
	}
}

// addGroup admits a shared group, failing the test on error.
func addGroup(t *testing.T, m *Manager, cfgs ...workload.Config) []*workload.Job {
	t.Helper()
	_, jobs, err := m.AddSharedGroup(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

var goldenScenarios = []goldenScenario{
	{
		name: "plain-preempt-migrate",
		gpus: []device.GPUClass{device.ClassV100, device.ClassRTX2080Ti},
		run:  preemptMigrate,
	},
	{
		name: "plain-checkpoint-preemption",
		opts: Options{CheckpointPreemption: true},
		gpus: []device.GPUClass{device.ClassV100, device.ClassRTX2080Ti},
		run:  preemptMigrate,
	},
	{
		name: "plain-coupled",
		opts: Options{DisableFreeCPUExecutors: true},
		gpus: []device.GPUClass{device.ClassV100, device.ClassRTX2080Ti},
		run:  preemptMigrate,
	},
	{
		name: "plain-sync-transfer",
		opts: Options{SyncStateTransfer: true},
		gpus: []device.GPUClass{device.ClassV100, device.ClassRTX2080Ti},
		run:  preemptMigrate,
	},
	{
		name: "plain-preempt-migrate-cpu",
		gpus: []device.GPUClass{device.ClassV100},
		run:  preemptMigrateCPU,
	},
	{
		name: "batched-serving-preempts-training",
		gpus: []device.GPUClass{device.ClassV100},
		run: func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
			train := mustAdd(t, m, trainCfg(t, "train", "ResNet50", 32, 1, device.GPUID(0)))
			cfg := servingCfg(t, "serve", "ResNet50", 2, 4*time.Millisecond)
			cfg.MaxBatch, cfg.BatchWait = 4, 6*time.Millisecond
			serve := mustAdd(t, m, cfg)
			eng.RunUntil(1500 * time.Millisecond)
			serve.StopArrivals()
			eng.RunUntil(2 * time.Second)
			return []*workload.Job{train, serve}
		},
	},
	{
		name: "elastic-resize-rebind-drain",
		gpus: []device.GPUClass{device.ClassV100, device.ClassV100, device.ClassRTX2080Ti},
		run: func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
			job := mustAdd(t, m, elasticCfg(t, "elastic", "ResNet50", 32, 1, device.GPUID(0), device.GPUID(1)))
			at(t, eng, 500*time.Millisecond, func() error { return m.Resize(job, 4) })
			at(t, eng, 1200*time.Millisecond, func() error { return m.RebindJob(job, 0, device.GPUID(2)) })
			at(t, eng, 1900*time.Millisecond, func() error { return m.DrainDevice(device.GPUID(1)) })
			at(t, eng, 2600*time.Millisecond, func() error { return m.Resize(job, 2) })
			eng.RunUntil(3200 * time.Millisecond)
			return []*workload.Job{job}
		},
	},
	{
		name:   "gang-preempted-by-serving",
		nvlink: true,
		run: func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
			gang := mustAdd(t, m, gangCfg(t, "ddp", "ResNet50", 32, 1, device.GPUID(0), device.GPUID(1)))
			serve := mustAdd(t, m, servingCfg(t, "serve", "MobileNetV2", 2, 120*time.Millisecond))
			eng.RunUntil(2500 * time.Millisecond)
			return []*workload.Job{gang, serve}
		},
	},
	{
		name: "faults-plain-and-elastic",
		opts: Options{CheckpointEvery: 700 * time.Millisecond},
		gpus: []device.GPUClass{device.ClassV100, device.ClassV100, device.ClassV100},
		run: func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
			plain := trainCfg(t, "plain", "ResNet50", 16, 1, device.GPUID(0))
			plain.Fallbacks = []device.ID{device.GPUID(1)}
			a := mustAdd(t, m, plain)
			b := mustAdd(t, m, elasticCfg(t, "elastic", "MobileNetV2", 32, 1, device.GPUID(1), device.GPUID(2)))
			var p fault.Plan
			p.Transient(800*time.Millisecond, 0)
			p.Transient(1300*time.Millisecond, 2)
			p.LoseGPU(2*time.Second, 0)
			p.Transient(2600*time.Millisecond, 1)
			p.LoseGPU(3200*time.Millisecond, 2)
			arm(eng, m, p)
			eng.RunUntil(4500 * time.Millisecond)
			return []*workload.Job{a, b}
		},
	},
	{
		name: "fault-restores-plain-onto-cpu",
		opts: Options{CheckpointEvery: 700 * time.Millisecond},
		gpus: []device.GPUClass{device.ClassV100},
		run: func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
			cfg := trainCfg(t, "plain", "ResNet50", 16, 1, device.GPUID(0))
			cfg.Fallbacks = []device.ID{device.CPUID}
			job := mustAdd(t, m, cfg)
			var p fault.Plan
			p.LoseGPU(1500*time.Millisecond, 0)
			arm(eng, m, p)
			eng.RunUntil(3 * time.Second)
			return []*workload.Job{job}
		},
	},
	{
		name: "plain-drain-running-and-waiting",
		gpus: []device.GPUClass{device.ClassV100, device.ClassV100},
		run: func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
			a := mustAdd(t, m, trainCfg(t, "a", "ResNet50", 16, 1, device.GPUID(0)))
			b := mustAdd(t, m, trainCfg(t, "b", "ResNet50", 16, 1, device.GPUID(0)))
			at(t, eng, 1003*time.Millisecond, func() error { return m.DrainDevice(device.GPUID(0)) })
			eng.RunUntil(2 * time.Second)
			return []*workload.Job{a, b}
		},
	},
	{
		name: "plain-drain",
		gpus: []device.GPUClass{device.ClassV100, device.ClassV100},
		run: func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
			train := mustAdd(t, m, trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
			serve := mustAdd(t, m, servingCfg(t, "serve", "MobileNetV2", 2, 50*time.Millisecond))
			at(t, eng, time.Second, func() error { return m.DrainDevice(device.GPUID(0)) })
			eng.RunUntil(2500 * time.Millisecond)
			return []*workload.Job{train, serve}
		},
	},
	{
		name: "group-lockstep-preempted",
		gpus: []device.GPUClass{device.ClassV100},
		run: func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
			jobs := addGroup(t, m,
				trainCfg(t, "m0", "MobileNetV2", 16, 1, device.GPUID(0)),
				trainCfg(t, "m1", "MobileNetV2", 16, 1, device.GPUID(0)))
			serve := mustAdd(t, m, servingCfg(t, "serve", "ResNet50", 2, 30*time.Millisecond))
			eng.RunUntil(3 * time.Second)
			return append(jobs, serve)
		},
	},
	{
		name: "group-loss-and-drain",
		gpus: []device.GPUClass{device.ClassV100, device.ClassV100},
		run: func(t *testing.T, eng *sim.Engine, m *Manager) []*workload.Job {
			member := func(name string) workload.Config {
				cfg := trainCfg(t, name, "ResNet50", 32, 1, device.GPUID(0))
				cfg.Fallbacks = []device.ID{device.GPUID(1)}
				return cfg
			}
			jobs := addGroup(t, m, member("m0"), member("m1"))
			at(t, eng, 3*time.Second, func() error { return m.DrainDevice(device.GPUID(0)) })
			var p fault.Plan
			p.LoseGPU(8*time.Second, 1)
			arm(eng, m, p)
			eng.RunUntil(10 * time.Second)
			return jobs
		},
	},
}

// TestEventStreamGolden pins the scheduler's complete observable behaviour
// on short scenarios covering every job shape and recovery path: a digest
// of every bus event in emit order plus the job and manager counters. A
// refactor of the step engine must leave every line unchanged; regenerate
// deliberately with:
//
//	go test -run TestEventStreamGolden -update ./internal/core
func TestEventStreamGolden(t *testing.T) {
	var lines []string
	for _, sc := range goldenScenarios {
		var eng *sim.Engine
		var m *Manager
		if sc.nvlink {
			eng, _, m = newNVLinkHarness(t)
		} else {
			eng, _, m = newHarness(t, sc.opts, sc.gpus...)
		}
		d := &eventDigest{h: fnv.New64a()}
		m.bus.Subscribe(d)
		jobs := sc.run(t, eng, m)
		for _, j := range jobs {
			fmt.Fprintf(d.h, "job %s iterations=%d restarts=%d\n", j.Cfg.Name, j.Iterations, j.Restarts)
		}
		fmt.Fprintf(d.h, "preemptions=%d migrations=%d\n", m.Preemptions, m.Migrations)
		lines = append(lines, fmt.Sprintf("%s %016x", sc.name, d.h.Sum64()))
		t.Logf("%s: %d events, preemptions=%d migrations=%d", sc.name, d.events, m.Preemptions, m.Migrations)
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateEvents {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(eventsGolden)
	if err != nil {
		t.Fatalf("read %s: %v (regenerate with go test -run TestEventStreamGolden -update ./internal/core)", eventsGolden, err)
	}
	if got != string(want) {
		t.Fatalf("scheduler event streams differ from %s:\n got:\n%s want:\n%s", eventsGolden, got, want)
	}
}
