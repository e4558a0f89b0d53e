package core

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/fault"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

// groupWorld is a two-V100 machine running a priority-2 MobileNetV2
// server and a two-member ResNet50 batch-32 training group, all on gpu 0.
// Every member shares fallbacks; the server falls back to gpu 1. rec sees
// the relocation and fault events.
type groupWorld struct {
	eng     *sim.Engine
	m       *Manager
	members []*workload.Job
	rec     *obs.Recorder
}

func newGroupWorld(t *testing.T, opts Options, fallbacks ...device.ID) groupWorld {
	t.Helper()
	eng, _, m := newHarness(t, opts, device.ClassV100, device.ClassV100)
	rec := obs.NewRecorder(0)
	m.bus.Subscribe(rec, obs.KindMigrate, obs.KindRestore, obs.KindJobLost, obs.KindCheckpoint)
	serve := servingCfg(t, "serve", "MobileNetV2", 2, 50*time.Millisecond)
	serve.Fallbacks = []device.ID{device.GPUID(1)}
	mustAdd(t, m, serve)
	member := func(name string) workload.Config {
		cfg := trainCfg(t, name, "ResNet50", 32, 1, device.GPUID(0))
		cfg.Fallbacks = fallbacks
		return cfg
	}
	return groupWorld{eng: eng, m: m, members: addGroup(t, m, member("m0"), member("m1")), rec: rec}
}

// events returns the recorded events of kind k naming job.
func (w groupWorld) events(job *workload.Job, k obs.Kind) []obs.Event {
	var out []obs.Event
	for _, e := range w.rec.Events() {
		if e.Kind == k && e.Job == job.Cfg.Name {
			out = append(out, e)
		}
	}
	return out
}

// checkLockstep fails unless the members' step counts differ by at most one.
func (w groupWorld) checkLockstep(t *testing.T) {
	t.Helper()
	if d := w.members[0].Iterations - w.members[1].Iterations; d < -1 || d > 1 {
		t.Errorf("lockstep violated: iterations %d and %d", w.members[0].Iterations, w.members[1].Iterations)
	}
}

// A lost device moves every member to the shared fallback, restored from
// the host, and the group keeps stepping there in lockstep.
func TestGroupMovesOffLostDevice(t *testing.T) {
	w := newGroupWorld(t, Options{}, device.GPUID(1))
	var p fault.Plan
	p.LoseGPU(5*time.Second, 0)
	arm(w.eng, w.m, p)
	w.eng.RunUntil(10 * time.Second)
	mid := []int{w.members[0].Iterations, w.members[1].Iterations}
	w.eng.RunUntil(20 * time.Second)
	for i, job := range w.members {
		if dev := w.m.JobDevice(job); dev != device.GPUID(1) || job.Crashed() {
			t.Errorf("%s on %v (crashed %v), want gpu:1", job.Cfg.Name, dev, job.Crashed())
		}
		if mv := w.events(job, obs.KindMigrate); len(mv) != 1 || mv[0].Name != "fault" || mv[0].Device != "gpu:1" {
			t.Errorf("%s migrations: %+v, want one fault move to gpu:1", job.Cfg.Name, mv)
		}
		if rs := w.events(job, obs.KindRestore); len(rs) != 1 || rs[0].Name != "device-lost" {
			t.Errorf("%s restores: %+v, want one device-lost", job.Cfg.Name, rs)
		}
		if job.Iterations <= mid[i] {
			t.Errorf("%s made no steps after 10 s: %d then %d", job.Cfg.Name, mid[i], job.Iterations)
		}
	}
	w.checkLockstep(t)
}

// A drain moves every member to the shared fallback between its steps.
func TestGroupDrainMovesMembers(t *testing.T) {
	w := newGroupWorld(t, Options{}, device.GPUID(1))
	at(t, w.eng, 5*time.Second, func() error { return w.m.DrainDevice(device.GPUID(0)) })
	w.eng.RunUntil(20 * time.Second)
	for _, job := range w.members {
		if dev := w.m.JobDevice(job); dev != device.GPUID(1) {
			t.Errorf("%s on %v after the drain, want gpu:1", job.Cfg.Name, dev)
		}
		if mv := w.events(job, obs.KindMigrate); len(mv) != 1 || mv[0].Name != "drain" {
			t.Errorf("%s migrations: %+v, want one drain", job.Cfg.Name, mv)
		}
	}
	w.checkLockstep(t)
}

// With no fallback, a lost device loses every member.
func TestGroupLostWithoutFallback(t *testing.T) {
	w := newGroupWorld(t, Options{})
	var p fault.Plan
	p.LoseGPU(5*time.Second, 0)
	arm(w.eng, w.m, p)
	w.eng.RunUntil(10 * time.Second)
	for _, job := range w.members {
		if !job.Crashed() || len(w.events(job, obs.KindJobLost)) != 1 {
			t.Errorf("%s: crashed %v, %d JobLost events; want lost once", job.Cfg.Name, job.Crashed(), len(w.events(job, obs.KindJobLost)))
		}
	}
	if lost := w.m.FaultCounters().JobsLost; lost != 2 {
		t.Errorf("JobsLost = %d, want the two members", lost)
	}
}

// A member reports the device it runs on.
func TestGroupMemberDevice(t *testing.T) {
	w := newGroupWorld(t, Options{})
	for _, job := range w.members {
		if dev := w.m.JobDevice(job); dev != device.GPUID(0) {
			t.Errorf("JobDevice(%s) = %v, want gpu:0", job.Cfg.Name, dev)
		}
	}
}

// An input stall starves the shared input stage, as it does a plain job's.
func TestInputStallStarvesGroup(t *testing.T) {
	steps := func(stall bool) int {
		eng, _, m := newHarness(t, Options{}, device.ClassV100)
		members := addGroup(t, m,
			trainCfg(t, "m0", "ResNet50", 32, 1, device.GPUID(0)),
			trainCfg(t, "m1", "ResNet50", 32, 1, device.GPUID(0)))
		if stall {
			var p fault.Plan
			p.StallInputs(2*time.Second, 5*time.Second)
			arm(eng, m, p)
		}
		eng.RunUntil(10 * time.Second)
		return members[0].Iterations + members[1].Iterations
	}
	clean, stalled := steps(false), steps(true)
	if stalled >= clean*3/4 {
		t.Errorf("a 5 s input stall left %d member steps of %d", stalled, clean)
	}
}

// CheckpointEvery snapshots every training member periodically.
func TestGroupMembersCheckpoint(t *testing.T) {
	w := newGroupWorld(t, Options{CheckpointEvery: time.Second})
	w.eng.RunUntil(5500 * time.Millisecond)
	for _, job := range w.members {
		if n := len(w.events(job, obs.KindCheckpoint)); n < 4 {
			t.Errorf("%s took %d periodic checkpoints in 5.5 s at a 1 s interval", job.Cfg.Name, n)
		}
	}
}

// Members move together, so they must share their fallbacks.
func TestSharedGroupRejectsMismatchedFallbacks(t *testing.T) {
	_, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	a := trainCfg(t, "a", "ResNet50", 32, 1, device.GPUID(0))
	b := trainCfg(t, "b", "ResNet50", 32, 1, device.GPUID(0))
	b.Fallbacks = []device.ID{device.GPUID(1)}
	if _, _, err := m.AddSharedGroup([]workload.Config{a, b}); err == nil {
		t.Fatal("group with mismatched fallbacks accepted")
	}
}
