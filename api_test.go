package switchflow_test

import (
	"errors"
	"testing"
	"time"

	"switchflow"
)

func TestJobSpecValidate(t *testing.T) {
	valid := switchflow.JobSpec{
		Name: "ok", Model: "ResNet50", Batch: 8, ServeEvery: 50 * time.Millisecond,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(*switchflow.JobSpec)
	}{
		{"zero batch", func(s *switchflow.JobSpec) { s.Batch = 0 }},
		{"negative batch", func(s *switchflow.JobSpec) { s.Batch = -4 }},
		{"unknown model", func(s *switchflow.JobSpec) { s.Model = "NoSuchNet" }},
		{"negative gpu", func(s *switchflow.JobSpec) { s.Placement.Device = -2 }},
		{"negative fallback", func(s *switchflow.JobSpec) { s.Placement.Fallbacks = []int{-2} }},
		{"negative serve period", func(s *switchflow.JobSpec) { s.ServeEvery = -time.Second }},
		{"training with arrivals", func(s *switchflow.JobSpec) { s.Train = true }},
		{"training closed loop", func(s *switchflow.JobSpec) { s.Train = true; s.ServeEvery = 0; s.ClosedLoop = true }},
		{"closed loop and saturated", func(s *switchflow.JobSpec) { s.ServeEvery = 0; s.ClosedLoop = true; s.Saturated = true }},
		{"saturated with arrivals", func(s *switchflow.JobSpec) { s.Saturated = true }},
		{"closed loop with arrivals", func(s *switchflow.JobSpec) { s.ClosedLoop = true }},
		{"poisson without rate", func(s *switchflow.JobSpec) { s.ServeEvery = 0; s.PoissonArrivals = true }},
		{"serving without arrivals", func(s *switchflow.JobSpec) { s.ServeEvery = 0 }},
		{"negative SLO", func(s *switchflow.JobSpec) { s.SLO = -time.Millisecond }},
		{"negative max batch", func(s *switchflow.JobSpec) { s.MaxBatch = -1 }},
		{"negative batch wait", func(s *switchflow.JobSpec) { s.MaxBatch = 4; s.BatchWait = -time.Millisecond }},
		{"batch wait without batching", func(s *switchflow.JobSpec) { s.BatchWait = 5 * time.Millisecond }},
		{"training with SLO", func(s *switchflow.JobSpec) { s.Train = true; s.ServeEvery = 0; s.SLO = time.Second }},
		{"training with max batch", func(s *switchflow.JobSpec) { s.Train = true; s.ServeEvery = 0; s.MaxBatch = 4 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := valid
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

var allPolicies = []switchflow.Policy{
	switchflow.PolicySwitchFlow,
	switchflow.PolicyThreadedTF,
	switchflow.PolicyTimeSlice,
	switchflow.PolicyMPS,
}

// Every scheduler adapter — SwitchFlow and the three baselines — must
// reject invalid specs through the same validation path.
func TestAddJobValidatesOnEveryScheduler(t *testing.T) {
	bad := []switchflow.JobSpec{
		{Name: "b", Model: "ResNet50", Batch: 0, Train: true},
		{Name: "m", Model: "NoSuchNet", Batch: 8, Train: true},
		{Name: "g", Model: "ResNet50", Batch: 8, Train: true, Placement: switchflow.Placement{Device: 99}},
		{Name: "f", Model: "ResNet50", Batch: 8, Train: true, Placement: switchflow.Placement{Fallbacks: []int{99}}},
		{Name: "c", Model: "ResNet50", Batch: 1, ClosedLoop: true, Saturated: true},
	}
	for _, policy := range allPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			sim := switchflow.NewSimulation(switchflow.V100Server())
			sched, err := sim.NewScheduler(policy)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range bad {
				if _, err := sched.AddJob(spec); !errors.Is(err, switchflow.ErrInvalidJobSpec) {
					t.Errorf("%s: AddJob(%+v) = %v, want ErrInvalidJobSpec", policy, spec, err)
				}
			}
		})
	}
}

func TestNewSchedulerErrors(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.V100Server())
	if _, err := sim.NewScheduler(switchflow.Policy(42)); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := sim.NewScheduler(switchflow.PolicySwitchFlow, switchflow.WithCheckpointEvery(-time.Second)); err == nil {
		t.Error("negative checkpoint interval accepted")
	}
	if _, err := sim.NewScheduler(switchflow.PolicySwitchFlow, switchflow.WithFaultPlan(nil)); err == nil {
		t.Error("nil fault plan accepted")
	}
}

func TestPolicyString(t *testing.T) {
	want := map[switchflow.Policy]string{
		switchflow.PolicySwitchFlow: "switchflow",
		switchflow.PolicyThreadedTF: "threaded-tf",
		switchflow.PolicyTimeSlice:  "timeslice",
		switchflow.PolicyMPS:        "mps",
	}
	for policy, name := range want {
		sim := switchflow.NewSimulation(switchflow.V100Server())
		sched, err := sim.NewScheduler(policy)
		if err != nil {
			t.Fatal(err)
		}
		if policy.String() != name || sched.Name() != name {
			t.Errorf("policy %d: String()=%q Name()=%q, want %q",
				int(policy), policy.String(), sched.Name(), name)
		}
	}
}

// TestPlacementValidation covers the error paths of the placement API:
// vnode misuse, fallback overlap, and CPU-only training.
func TestPlacementValidation(t *testing.T) {
	trainSpec := switchflow.JobSpec{Name: "t", Model: "ResNet50", Batch: 8, Train: true}
	serveSpec := switchflow.JobSpec{Name: "s", Model: "ResNet50", Batch: 1, ClosedLoop: true}

	good := []switchflow.JobSpec{
		func() switchflow.JobSpec {
			s := trainSpec
			s.Placement = switchflow.Placement{Device: 1, Fallbacks: []int{0}, AllowCPU: true}
			return s
		}(),
		func() switchflow.JobSpec {
			s := trainSpec
			s.Placement = switchflow.Placement{VNodes: []int{0, 1}}
			return s
		}(),
		func() switchflow.JobSpec {
			s := trainSpec
			s.Placement = switchflow.Placement{Device: 1, VNodes: []int{1, 0}}
			return s
		}(),
		func() switchflow.JobSpec {
			s := serveSpec
			s.Placement = switchflow.Placement{Device: switchflow.CPUDevice}
			return s
		}(),
	}
	for i, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}

	bad := []struct {
		name   string
		mutate func(*switchflow.JobSpec)
	}{
		{"device below CPUDevice", func(s *switchflow.JobSpec) {
			s.Placement = switchflow.Placement{Device: -2}
		}},
		{"cpu-only training", func(s *switchflow.JobSpec) {
			s.Placement = switchflow.Placement{Device: switchflow.CPUDevice}
		}},
		{"negative fallback", func(s *switchflow.JobSpec) {
			s.Placement = switchflow.Placement{Device: 0, Fallbacks: []int{-3}}
		}},
		{"fallback overlaps primary", func(s *switchflow.JobSpec) {
			s.Placement = switchflow.Placement{Device: 1, Fallbacks: []int{1}}
		}},
		{"duplicate fallback", func(s *switchflow.JobSpec) {
			s.Placement = switchflow.Placement{Device: 0, Fallbacks: []int{1, 1}}
		}},
		{"negative vnode index", func(s *switchflow.JobSpec) {
			s.Placement = switchflow.Placement{VNodes: []int{0, -1}}
		}},
		{"device disagrees with vnodes", func(s *switchflow.JobSpec) {
			s.Placement = switchflow.Placement{Device: 1, VNodes: []int{0, 1}}
		}},
		{"more vnodes than batch samples", func(s *switchflow.JobSpec) {
			s.Batch = 2
			s.Placement = switchflow.Placement{VNodes: []int{0, 1, 0}}
		}},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			spec := trainSpec
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

	// Vnodes on a serving job are rejected regardless of the rest.
	s := serveSpec
	s.Placement = switchflow.Placement{VNodes: []int{0}}
	if err := s.Validate(); !errors.Is(err, switchflow.ErrInvalidJobSpec) {
		t.Errorf("serving job with vnodes: %v, want ErrInvalidJobSpec", err)
	}
}

// TestElasticOpsRequireSupport pins the ErrNotElastic contract: baselines
// reject elastic specs; SwitchFlow rejects elastic ops on legacy jobs.
func TestElasticOpsRequireSupport(t *testing.T) {
	elastic := switchflow.JobSpec{
		Name: "e", Model: "ResNet50", Batch: 8, Train: true,
		Placement: switchflow.Placement{VNodes: []int{0, 1}},
	}
	for _, policy := range []switchflow.Policy{
		switchflow.PolicyThreadedTF,
		switchflow.PolicyTimeSlice,
		switchflow.PolicyMPS,
	} {
		sim := switchflow.NewSimulation(switchflow.V100Server())
		sched, err := sim.NewScheduler(policy)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.AddJob(elastic); !errors.Is(err, switchflow.ErrNotElastic) {
			t.Errorf("%s: elastic spec: %v, want ErrNotElastic", policy, err)
		}
	}

	sim := switchflow.NewSimulation(switchflow.V100Server())
	sched, err := sim.NewSwitchFlowScheduler()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := sched.AddJob(switchflow.JobSpec{
		Name: "l", Model: "ResNet50", Batch: 8, Train: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Grow(legacy, 2); !errors.Is(err, switchflow.ErrNotElastic) {
		t.Errorf("Grow on legacy job: %v, want ErrNotElastic", err)
	}
	if err := sched.Rebind(legacy, 0, 1); !errors.Is(err, switchflow.ErrNotElastic) {
		t.Errorf("Rebind on legacy job: %v, want ErrNotElastic", err)
	}
}

// TestElasticGrowDrainPublicAPI drives the elastic lifecycle end to end
// through the public surface: admit with vnodes, grow, drain the primary
// GPU, and verify zero restarts with the binding moved off it.
func TestElasticGrowDrainPublicAPI(t *testing.T) {
	sim := switchflow.NewSimulation(switchflow.TwoGPUServer())
	sched, err := sim.NewSwitchFlowScheduler()
	if err != nil {
		t.Fatal(err)
	}
	job, err := sched.AddJob(switchflow.JobSpec{
		Name: "train", Model: "ResNet50", Batch: 32, Train: true, Priority: 1,
		Placement: switchflow.Placement{VNodes: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Elastic() || job.VNodes() != 1 {
		t.Fatalf("Elastic()=%v VNodes()=%d, want elastic single vnode", job.Elastic(), job.VNodes())
	}
	sim.RunFor(3 * time.Second)
	if err := sched.Grow(job, 2); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(5 * time.Second)
	if job.VNodes() != 2 {
		t.Fatalf("VNodes() = %d after grow, want 2", job.VNodes())
	}
	atDrain := job.Iterations()
	if err := sched.Drain(0); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(8 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.Err())
	}
	if job.Restarts() != 0 {
		t.Fatalf("Restarts() = %d after drain, want 0 (rebind is restart-free)", job.Restarts())
	}
	if job.Iterations() <= atDrain {
		t.Fatal("no progress after drain")
	}
	if b := job.Binding(); b == "" || containsGPU0(b) {
		t.Fatalf("binding %q still on drained gpu:0", b)
	}
}

func containsGPU0(binding string) bool {
	for i := 0; i+5 <= len(binding); i++ {
		if binding[i:i+5] == "gpu:0" {
			return true
		}
	}
	return false
}

// TestFaultRecoveryAcceptance is the ISSUE's headline scenario: under an
// injected GPU loss, SwitchFlow jobs with fallbacks migrate and keep
// serving with bounded tails, while the process-model baseline reports
// the jobs crashed.
func TestFaultRecoveryAcceptance(t *testing.T) {
	const (
		lossAt  = 5 * time.Second
		horizon = 20 * time.Second
	)
	runOne := func(policy switchflow.Policy) (*switchflow.Job, switchflow.Scheduler, *switchflow.Simulation) {
		sim := switchflow.NewSimulation(switchflow.TwoGPUServer())
		plan := switchflow.NewFaultPlan().LoseGPU(lossAt, 0)
		sched, err := sim.NewScheduler(policy,
			switchflow.WithFaultPlan(plan),
			switchflow.WithCheckpointEvery(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		serve, err := sched.AddJob(switchflow.JobSpec{
			Name: "serve", Model: "ResNet50", Batch: 1, Priority: 2,
			Placement:  switchflow.Placement{Fallbacks: []int{1}},
			ServeEvery: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(horizon)
		return serve, sched, sim
	}

	serve, sched, _ := runOne(switchflow.PolicySwitchFlow)
	if serve.Crashed() {
		t.Fatalf("switchflow serving job crashed despite fallback: %v", serve.Err())
	}
	st := sched.FaultStats()
	if st.DeviceLost != 1 || st.Migrations == 0 {
		t.Errorf("switchflow stats = %+v, want the device loss and a migration", st)
	}
	if serve.Restarts() == 0 {
		t.Errorf("serving job Restarts() = 0, want > 0 after fault-driven migration")
	}
	if st.JobsLost != 0 {
		t.Errorf("switchflow lost %d jobs despite fallback", st.JobsLost)
	}
	// The job must keep serving after the loss: ~150 arrivals over 15s
	// remain; require most of them, and a tail bounded well under the
	// outage length.
	if serve.Requests() < 150 {
		t.Errorf("served %d requests, want >= 150 (kept serving after migration)", serve.Requests())
	}
	if p95 := serve.P95Latency(); p95 <= 0 || p95 > 2*time.Second {
		t.Errorf("p95 = %v, want bounded (0, 2s]", p95)
	}
	sf := sched.(*switchflow.SwitchFlowScheduler)
	if dev := sf.JobDeviceName(serve); dev != "gpu:1" {
		t.Errorf("serving job on %s, want gpu:1 after migration", dev)
	}
	if sf.RecoveryP95() <= 0 {
		t.Errorf("RecoveryP95() = %v, want > 0 after a recovery", sf.RecoveryP95())
	}

	serveTF, schedTF, _ := runOne(switchflow.PolicyThreadedTF)
	if !serveTF.Crashed() {
		t.Fatal("threaded-tf serving job survived a device loss")
	}
	if !errors.Is(serveTF.Err(), switchflow.ErrDeviceLost) {
		t.Errorf("crash cause = %v, want ErrDeviceLost", serveTF.Err())
	}
	stTF := schedTF.FaultStats()
	if stTF.JobsLost == 0 || stTF.Migrations != 0 || stTF.Restarts != 0 {
		t.Errorf("threaded-tf stats = %+v, want lost jobs and no recovery", stTF)
	}
	if serveTF.Restarts() != 0 {
		t.Errorf("baseline job Restarts() = %d, want 0", serveTF.Restarts())
	}
	if serveTF.Requests() >= serve.Requests() {
		t.Errorf("threaded-tf served %d >= switchflow %d; the dead job should stop serving",
			serveTF.Requests(), serve.Requests())
	}
}
