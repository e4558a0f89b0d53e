package core

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/threadpool"
	"switchflow/internal/workload"
)

// TestPoolForOneRule pins poolFor's one rule at the points a job can
// reach: a CPU placement gets the temporary pool, everything else the
// global pool. A preempted victim that stays on its GPU is not isolated.
func TestPoolForOneRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		// probe runs a scenario and returns poolFor at its probe points.
		probe    func(t *testing.T, m *Manager) []*threadpool.Pool
		wantTemp bool
	}{
		{"plain GPU job", probePlainGPU, false},
		{"victim without fallback, suspended then resumed", probeStayingVictim, false},
		{"victim migrated to CPU", probeCPUVictim, true},
		{"CPU-placed group member", probeCPUGroup, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, m := newHarness(t, Options{}, device.ClassV100)
			want := m.global
			if tc.wantTemp {
				want = m.temp
			}
			got := tc.probe(t, m)
			if len(got) == 0 {
				t.Fatal("no probe point reached")
			}
			for i, p := range got {
				if p != want {
					t.Errorf("probe %d: poolFor = %s, want %s", i, p.Name, want.Name)
				}
			}
		})
	}
}

func probePlainGPU(t *testing.T, m *Manager) []*threadpool.Pool {
	job, err := m.AddJob(trainCfg(t, "train", "ResNet50", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	m.eng.RunUntil(time.Second)
	return []*threadpool.Pool{m.poolFor(m.stateOf(job))}
}

// probeStayingVictim probes a preempted plain job with no fallback at its
// first resume: once while its run is still suspended, once just after
// the run resumes (before its step commits).
func probeStayingVictim(t *testing.T, m *Manager) []*threadpool.Pool {
	train, err := m.AddJob(trainCfg(t, "train", "VGG16", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob(workload.Config{
		Name: "serve", Model: spec(t, "ResNet50"), Batch: 1,
		Kind: workload.KindServing, Priority: 2, Device: device.GPUID(0),
		ArrivalEvery: 300 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	js := m.stateOf(train)
	var got []*threadpool.Pool
	m.bus.Subscribe(obs.SinkFunc(func(e obs.Event) {
		if e.Job != "train" || got != nil {
			return
		}
		if sh := js.shards[0]; sh.run == nil || !sh.run.Suspended() {
			t.Fatal("resume event without a suspended run")
		}
		got = append(got, m.poolFor(js))
		m.eng.After(0, func() {
			if js.shards[0].run.Suspended() || !js.stepOpen {
				t.Error("victim not mid-step after resume")
			}
			got = append(got, m.poolFor(js))
		})
	}), obs.KindResume)
	m.eng.RunUntil(5 * time.Second)
	if len(got) != 2 {
		t.Fatalf("victim never resumed (%d probes)", len(got))
	}
	return got
}

// probeCPUVictim probes a plain victim migrated to the CPU, as in
// Figure 7(d).
func probeCPUVictim(t *testing.T, m *Manager) []*threadpool.Pool {
	low, err := m.AddJob(workload.Config{
		Name: "low", Model: spec(t, "MobileNetV2"), Batch: 8,
		Kind: workload.KindTraining, Priority: 1, Device: device.GPUID(0),
		Fallbacks: []device.ID{device.CPUID},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.eng.RunUntil(time.Second)
	if _, err := m.AddJob(trainCfg(t, "high", "ResNet50", 32, 2, device.GPUID(0))); err != nil {
		t.Fatal(err)
	}
	m.eng.RunUntil(10 * time.Second)
	if got := m.JobDevice(low); got != device.CPUID {
		t.Fatalf("victim on %v, want cpu:0", got)
	}
	return []*threadpool.Pool{m.poolFor(m.stateOf(low))}
}

func probeCPUGroup(t *testing.T, m *Manager) []*threadpool.Pool {
	group := addCPUGroup(t, m)
	m.eng.RunUntil(time.Second)
	var got []*threadpool.Pool
	for _, js := range group.members {
		got = append(got, m.poolFor(js))
	}
	return got
}
