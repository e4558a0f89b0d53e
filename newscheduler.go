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

// Option configures NewScheduler. Options that only apply to SwitchFlow
// (temp pool size, ablation toggles, checkpointing) are ignored by the
// baseline policies, mirroring how the real systems have no equivalent
// knobs.
type Option func(*schedulerConfig)

type schedulerConfig struct {
	core      core.Options
	faultPlan *FaultPlan
	err       error
}

// WithTempPoolThreads sizes SwitchFlow's temporary pool (§3.3);
// default 4.
func WithTempPoolThreads(n int) Option {
	return func(c *schedulerConfig) {
		if n <= 0 {
			c.err = fmt.Errorf("switchflow: temp pool threads must be positive, got %d", n)
			return
		}
		c.core.TempPoolThreads = n
	}
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
		c.core.CheckpointEvery = d
	}
}

// WithoutGPUExclusivity disables scheduling invariant 1 (ablation): GPU
// executors co-run and contend.
func WithoutGPUExclusivity() Option {
	return func(c *schedulerConfig) { c.core.DisableGPUExclusive = true }
}

// WithoutFreeCPUExecutors disables invariant 2 (ablation): input stages
// only run while the job holds the GPU.
func WithoutFreeCPUExecutors() Option {
	return func(c *schedulerConfig) { c.core.DisableFreeCPUExecutors = true }
}

// WithSyncStateTransfer makes migration state transfer block the
// preempting job (ablation of §3.3's asynchronous design).
func WithSyncStateTransfer() Option {
	return func(c *schedulerConfig) { c.core.SyncStateTransfer = true }
}

// WithoutTempPoolIsolation keeps preempted jobs on the global pool
// (ablation).
func WithoutTempPoolIsolation() Option {
	return func(c *schedulerConfig) { c.core.DisableTempPoolIsolation = true }
}

// WithCheckpointPreemption replaces SwitchFlow's abort-and-resume with
// Gandiva-style checkpoint-suspend-resume (§6 comparison).
func WithCheckpointPreemption() Option {
	return func(c *schedulerConfig) { c.core.CheckpointPreemption = true }
}

// WithoutDynamicBatching clamps serving jobs to single-request compute
// launches regardless of their MaxBatch (the batching-off arm of the
// serving experiment). Admission control still applies.
func WithoutDynamicBatching() Option {
	return func(c *schedulerConfig) { c.core.DisableDynamicBatching = true }
}

// NewSwitchFlowScheduler builds the SwitchFlow policy with its concrete
// type, for callers that need the extended surface (AddSharedGroup,
// preemption and recovery stats). Equivalent to NewScheduler(
// PolicySwitchFlow, opts...) plus the type assertion.
func (s *Simulation) NewSwitchFlowScheduler(opts ...Option) (*SwitchFlowScheduler, error) {
	sched, err := s.NewScheduler(PolicySwitchFlow, opts...)
	if err != nil {
		return nil, err
	}
	return sched.(*SwitchFlowScheduler), nil
}

// NewScheduler is the unified constructor for all four schedulers. It
// subsumes the legacy SwitchFlow/ThreadedTF/TimeSlice/MPS constructors,
// which remain as thin wrappers; a SwitchFlow scheduler built here can be
// asserted to *SwitchFlowScheduler for its extended stats surface. It
// rejects a fault plan whose events target a GPU the machine lacks.
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
		coreOpts := cfg.core
		if cfg.faultPlan != nil && coreOpts.CheckpointEvery == 0 {
			coreOpts.CheckpointEvery = DefaultCheckpointEvery
		}
		m := core.NewManager(s.eng, s.machine, coreOpts)
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
