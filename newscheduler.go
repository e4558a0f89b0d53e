package switchflow

import (
	"fmt"
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/core"
	"switchflow/internal/fault"
)

// Policy selects the scheduling policy for NewScheduler.
type Policy int

// Scheduling policies.
const (
	// PolicySwitchFlow is the paper's preemptive multitasking scheduler.
	PolicySwitchFlow Policy = iota
	// PolicyThreadedTF is multi-threaded TensorFlow: free GPU sharing
	// through per-job streams, OOM crashes possible.
	PolicyThreadedTF
	// PolicyTimeSlice is Gandiva-style session time slicing.
	PolicyTimeSlice
	// PolicyMPS is NVIDIA MPS: spatial sharing with per-process memory
	// reservations.
	PolicyMPS
)

// String implements fmt.Stringer; the names match Scheduler.Name.
func (p Policy) String() string {
	switch p {
	case PolicySwitchFlow:
		return "switchflow"
	case PolicyThreadedTF:
		return "threaded-tf"
	case PolicyTimeSlice:
		return "timeslice"
	case PolicyMPS:
		return "mps"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// baselinePolicies maps the facade's baseline policies onto the baseline
// runtime's.
var baselinePolicies = map[Policy]baseline.Policy{
	PolicyThreadedTF: baseline.ThreadedTF,
	PolicyTimeSlice:  baseline.TimeSlice,
	PolicyMPS:        baseline.MPS,
}

// DefaultCheckpointEvery is the periodic host-checkpoint interval used
// when a fault plan is attached without an explicit WithCheckpointEvery.
const DefaultCheckpointEvery = 10 * time.Second

// Option configures NewScheduler. The checkpoint interval only applies
// to SwitchFlow; the baseline policies ignore it, mirroring how the real
// systems have no equivalent knob.
type Option func(*schedulerConfig)

type schedulerConfig struct {
	checkpointEvery time.Duration
	faultPlan       *FaultPlan
	err             error
}

// WithFaultPlan attaches a fault-injection plan: the plan's events are
// applied to the simulated hardware and the scheduler reacts (SwitchFlow
// self-heals; the baselines lose jobs). SwitchFlow additionally enables
// periodic host checkpointing at DefaultCheckpointEvery unless
// WithCheckpointEvery overrides it.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *schedulerConfig) {
		if p == nil {
			c.err = fmt.Errorf("switchflow: WithFaultPlan(nil)")
			return
		}
		c.faultPlan = p
	}
}

// WithCheckpointEvery sets SwitchFlow's periodic host-checkpoint
// interval (fault recovery rolls jobs back to the last checkpoint).
func WithCheckpointEvery(d time.Duration) Option {
	return func(c *schedulerConfig) {
		if d <= 0 {
			c.err = fmt.Errorf("switchflow: checkpoint interval must be positive, got %v", d)
			return
		}
		c.checkpointEvery = d
	}
}

// NewSwitchFlowScheduler builds the SwitchFlow policy with its concrete
// type, for callers that need the extended surface (AddSharedGroup, the
// elastic operations Grow, Shrink, Rebind, Drain and Undrain, preemption
// and recovery stats). Equivalent to NewScheduler(PolicySwitchFlow,
// opts...) plus the type assertion.
func (s *Simulation) NewSwitchFlowScheduler(opts ...Option) (*SwitchFlowScheduler, error) {
	sched, err := s.NewScheduler(PolicySwitchFlow, opts...)
	if err != nil {
		return nil, err
	}
	return sched.(*SwitchFlowScheduler), nil
}

// NewScheduler is the one constructor for all four schedulers; a
// SwitchFlow scheduler built here can be asserted to *SwitchFlowScheduler
// for its extended surface. It rejects a fault plan whose events
// target a GPU the machine lacks.
func (s *Simulation) NewScheduler(policy Policy, opts ...Option) (Scheduler, error) {
	var cfg schedulerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.faultPlan != nil {
		for _, ev := range cfg.faultPlan.inner.Events {
			if i := ev.Device.Index; ev.Kind != fault.KindInputStall && (i < 0 || i >= s.GPUCount()) {
				return nil, fmt.Errorf("switchflow: %v fault at %v targets gpu:%d, but the machine has %d GPUs",
					ev.Kind, ev.At, i, s.GPUCount())
			}
		}
	}

	var sched Scheduler
	var handler fault.Handler
	switch policy {
	case PolicySwitchFlow:
		every := cfg.checkpointEvery
		if cfg.faultPlan != nil && every == 0 {
			every = DefaultCheckpointEvery
		}
		m := core.NewManager(s.eng, s.machine, core.Options{CheckpointEvery: every})
		sf := &SwitchFlowScheduler{m: m, sim: s}
		sched, handler = sf, m
	case PolicyThreadedTF, PolicyTimeSlice, PolicyMPS:
		b := baseline.New(s.eng, s.machine, baselinePolicies[policy])
		sched, handler = &baselineScheduler{name: policy.String(), sim: s, rt: b}, b
	default:
		return nil, fmt.Errorf("switchflow: unknown policy %d", int(policy))
	}

	if cfg.faultPlan != nil {
		in := fault.NewInjector(s.eng, s.machine, cfg.faultPlan.inner)
		in.Attach(handler)
		in.Arm()
	}
	return sched, nil
}
