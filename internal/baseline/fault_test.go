package baseline

import (
	"errors"
	"strings"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/fault"
	"switchflow/internal/metrics"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

// faultRig runs one ResNet50 trainer on each of two V100s under policy,
// with plan armed: victim on gpu:0, bystander on gpu:1.
func faultRig(t *testing.T, policy Policy, plan fault.Plan) (eng *sim.Engine, machine *device.Machine, s *Scheduler, victim, bystander *workload.Job) {
	t.Helper()
	eng, machine = newMachine(device.ClassV100, device.ClassV100)
	s = New(eng, machine, policy)
	victim, err := s.AddJob(trainCfg(t, "victim", "ResNet50", 16, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	bystander, err = s.AddJob(trainCfg(t, "bystander", "ResNet50", 16, device.GPUID(1)))
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(eng, machine, plan)
	in.Attach(s)
	in.Arm()
	return eng, machine, s, victim, bystander
}

func TestFaults(t *testing.T) {
	for _, policy := range []Policy{ThreadedTF, TimeSlice, MPS} {
		t.Run(policy.String(), func(t *testing.T) {
			t.Run("device-loss", func(t *testing.T) {
				var p fault.Plan
				p.LoseGPU(3*time.Second, 0)
				eng, machine, s, victim, bystander := faultRig(t, policy, p)
				eng.RunUntil(10 * time.Second)
				if !victim.Crashed() || !errors.Is(victim.CrashErr, fault.ErrDeviceLost) {
					t.Fatalf("victim should die with the device, got crashed=%v err=%v",
						victim.Crashed(), victim.CrashErr)
				}
				if victim.Restarts != 0 {
					t.Fatalf("baseline job restarted %d times; baselines have no recovery", victim.Restarts)
				}
				if bystander.Crashed() {
					t.Fatalf("job on the surviving GPU crashed: %v", bystander.CrashErr)
				}
				if st := s.FaultStats(); st.DeviceLost != 1 || st.JobsLost != 1 {
					t.Fatalf("fault stats = %+v", st)
				}
				if got := machine.GPU(0).Mem.Used(); got != 0 {
					t.Fatalf("invalidated pool reports %d bytes used", got)
				}
				if got := s.jobs[0].headroom; got != 0 {
					t.Fatalf("lost device still accounts %d bytes of headroom", got)
				}
			})
			t.Run("transient", func(t *testing.T) {
				var p fault.Plan
				p.Transient(3*time.Second, 0)
				eng, machine, s, victim, bystander := faultRig(t, policy, p)
				eng.RunUntil(10 * time.Second)
				if !victim.Crashed() || !errors.Is(victim.CrashErr, fault.ErrTransient) {
					t.Fatalf("transient should kill the process, got crashed=%v err=%v",
						victim.Crashed(), victim.CrashErr)
				}
				if bystander.Crashed() {
					t.Fatalf("job on another GPU crashed: %v", bystander.CrashErr)
				}
				if st := s.FaultStats(); st.Transients != 1 || st.JobsLost != 1 {
					t.Fatalf("fault stats = %+v", st)
				}
				if got := machine.GPU(0).Mem.Used(); got != 0 {
					t.Fatalf("dead process left %d bytes reserved on a healthy device", got)
				}
			})
			t.Run("input-stall", func(t *testing.T) {
				var p fault.Plan
				p.StallInputs(2*time.Second, 3*time.Second)
				eng, _, s, a, b := faultRig(t, policy, p)
				eng.RunUntil(5 * time.Second)
				atEnd := [2]int{a.Iterations, b.Iterations}
				eng.RunUntil(10 * time.Second)
				for i, job := range []*workload.Job{a, b} {
					if job.Crashed() {
						t.Fatalf("%s crashed during the stall: %v", job.Cfg.Name, job.CrashErr)
					}
					if job.Iterations <= atEnd[i] {
						t.Fatalf("%s never resumed after the stall: %d iterations", job.Cfg.Name, job.Iterations)
					}
				}
				if st := s.FaultStats(); st.InputStalls != 1 || st.JobsLost != 0 {
					t.Fatalf("fault stats = %+v", st)
				}
			})
		})
	}
}

// Every baseline's faults appear on the machine's bus: the injector emits
// each FaultInject and the scheduler a JobLost per job it kills, and
// FaultStats is the aggregate of exactly those events.
func TestFaultsOnTheBus(t *testing.T) {
	for _, policy := range []Policy{ThreadedTF, TimeSlice, MPS} {
		t.Run(policy.String(), func(t *testing.T) {
			var p fault.Plan
			p.StallInputs(time.Second, time.Second)
			p.LoseGPU(3*time.Second, 0)
			p.Transient(4*time.Second, 1)
			eng, machine, s, victim, bystander := faultRig(t, policy, p)
			var rec obs.Recorder
			machine.Bus().Subscribe(&rec, metrics.FaultSinkKinds...)
			eng.RunUntil(10 * time.Second)

			var got []string
			var sink metrics.FaultSink
			for _, e := range rec.Events() {
				got = append(got, e.Kind.String()+" "+e.Job+" "+e.Device+" "+e.Name)
				sink.Observe(e)
			}
			want := []string{
				"FaultInject   input-stall",
				"FaultInject  gpu:0 device-lost",
				"JobLost " + victim.Cfg.Name + " gpu:0 device lost",
				"FaultInject  gpu:1 transient",
				"JobLost " + bystander.Cfg.Name + " gpu:1 transient",
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("fault events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			st := s.FaultStats()
			if st != sink.Counters() {
				t.Fatalf("FaultStats = %+v, the bus aggregates to %+v", st, sink.Counters())
			}
			if st.Injected != 3 || st.DeviceLost != 1 || st.Transients != 1 || st.InputStalls != 1 || st.JobsLost != 2 {
				t.Fatalf("fault stats = %+v", st)
			}
		})
	}
}

func TestTimeSliceReleasesLockWhenActiveSessionDies(t *testing.T) {
	eng, machine := newMachine(device.ClassV100, device.ClassV100)
	s := New(eng, machine, TimeSlice)
	a, _ := s.AddJob(trainCfg(t, "a", "ResNet50", 16, device.GPUID(0)))
	b, _ := s.AddJob(trainCfg(t, "b", "ResNet50", 16, device.GPUID(1)))
	var p fault.Plan
	p.LoseGPU(3*time.Second, 0)
	in := fault.NewInjector(eng, machine, p)
	in.Attach(s)
	in.Arm()

	eng.RunUntil(3*time.Second + time.Millisecond)
	atLoss := b.Iterations
	eng.RunUntil(20 * time.Second)
	if !a.Crashed() {
		t.Fatal("job on the lost device survived")
	}
	if b.Crashed() {
		t.Fatalf("survivor crashed: %v", b.CrashErr)
	}
	// The survivor must keep getting sessions: a dead active session on the
	// lost device would otherwise hold the machine forever.
	if b.Iterations <= atLoss {
		t.Fatalf("survivor starved after device loss: %d iterations then, %d now",
			atLoss, b.Iterations)
	}
}
