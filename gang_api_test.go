package switchflow_test

import (
	"errors"
	"testing"
	"time"

	"switchflow"
	"switchflow/internal/obs"
)

// TestPublicAPIGangJob drives a gang through the facade: a two-replica
// DDP job on the NVLink testbed trains, reports Gang(), and pays a
// priced all-reduce barrier every step.
func TestPublicAPIGangJob(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.NVLinkV100Server())
	var rec obs.Recorder
	sim.EventBus().Subscribe(&rec, obs.KindAllReduce)
	sched := newSwitchFlow(t, sim)
	job, err := sched.AddJob(switchflow.JobSpec{
		Name: "ddp", Model: "ResNet50", Batch: 32, Train: true, Priority: 1,
		Gang: true, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Gang() {
		t.Fatal("Gang() = false for a gang spec")
	}
	if job.VNodes() != 2 {
		t.Fatalf("gang materialized %d vnodes, want 2", job.VNodes())
	}
	sim.RunFor(3 * time.Second)
	if job.Crashed() {
		t.Fatalf("gang crashed: %v", job.Err())
	}
	if job.Iterations() == 0 {
		t.Fatal("gang made no progress")
	}
	syncs := rec.Events()
	if len(syncs) < job.Iterations() {
		t.Fatalf("%d AllReduce events for %d steps; every step must sync",
			len(syncs), job.Iterations())
	}
	for _, e := range syncs {
		if e.Count != 2 || e.Dur <= 0 {
			t.Fatalf("AllReduce event Count=%d Dur=%v, want width 2 and a priced sync", e.Count, e.Dur)
		}
	}

	// A plain elastic job is not a gang.
	solo, err := sched.AddJob(switchflow.JobSpec{
		Name: "solo", Model: "MobileNetV2", Batch: 8, Train: true, Priority: 1,
		Placement: switchflow.Placement{VNodes: []int{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Gang() {
		t.Fatal("Gang() = true for a non-gang elastic job")
	}
}

// TestPublicAPIGangValidation pins the gang surface's spec errors.
func TestPublicAPIGangValidation(t *testing.T) {
	base := switchflow.JobSpec{
		Name: "g", Model: "ResNet50", Batch: 8, Train: true, Gang: true, Replicas: 2,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("good gang spec rejected: %v", err)
	}
	explicit := base
	explicit.Replicas = 0
	explicit.Placement = switchflow.Placement{VNodes: []int{2, 3}}
	if err := explicit.Validate(); err != nil {
		t.Fatalf("gang with explicit VNodes rejected: %v", err)
	}

	bad := []struct {
		name   string
		mutate func(*switchflow.JobSpec)
	}{
		{"gang must train", func(s *switchflow.JobSpec) {
			s.Train = false
			s.Replicas = 2
			s.ClosedLoop = true
		}},
		{"gang needs width two", func(s *switchflow.JobSpec) { s.Replicas = 1 }},
		{"gang with no width", func(s *switchflow.JobSpec) { s.Replicas = 0 }},
		{"negative replicas", func(s *switchflow.JobSpec) { s.Replicas = -1 }},
		{"replicas without gang", func(s *switchflow.JobSpec) { s.Gang = false }},
		{"replicas conflict with vnodes", func(s *switchflow.JobSpec) {
			s.Replicas = 3
			s.Placement = switchflow.Placement{VNodes: []int{0, 1}}
		}},
		{"duplicate replica GPUs", func(s *switchflow.JobSpec) {
			s.Replicas = 0
			s.Placement = switchflow.Placement{VNodes: []int{1, 1}}
		}},
		{"replicas past the batch", func(s *switchflow.JobSpec) { s.Replicas = 1 << 40 }},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			spec := base
			tt.mutate(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatalf("spec %+v accepted", spec)
			}
			if !errors.Is(err, switchflow.ErrInvalidJobSpec) {
				t.Fatalf("error %v does not wrap ErrInvalidJobSpec", err)
			}
		})
	}
}

// A gang's width is checked arithmetically: neither Validate nor AddJob
// builds a replica set wider than the machine. A set of 1<<40 indices
// is 8 TiB, and running out of memory is a fatal error that recover
// cannot catch.
func TestHugeGangWidthRejectedWithoutMaterializing(t *testing.T) {
	spec := switchflow.JobSpec{
		Name: "g", Model: "ResNet50", Batch: 1 << 40, Train: true, Gang: true, Replicas: 1 << 40,
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("machine-independent check rejected a gang no wider than its batch: %v", err)
	}
	sim := switchflow.NewSimulation(switchflow.NVLinkV100Server())
	if _, err := newSwitchFlow(t, sim).AddJob(spec); !errors.Is(err, switchflow.ErrInvalidJobSpec) {
		t.Fatalf("AddJob of a 1<<40-replica gang: err = %v, want ErrInvalidJobSpec", err)
	}
}

// Gangs materialize virtual nodes, so every baseline rejects them with
// the same ErrNotElastic contract as hand-written elastic specs.
func TestGangRequiresSwitchFlow(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.NVLinkV100Server())
	sched := newPolicy(t, sim, switchflow.PolicyTimeSlice)
	_, err := sched.AddJob(switchflow.JobSpec{
		Name: "g", Model: "ResNet50", Batch: 8, Train: true, Gang: true, Replicas: 2,
	})
	if !errors.Is(err, switchflow.ErrNotElastic) {
		t.Fatalf("baseline admitted a gang (err=%v), want ErrNotElastic", err)
	}
}
