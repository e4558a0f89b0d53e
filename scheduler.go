package switchflow

import (
	"errors"
	"fmt"
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/core"
	"switchflow/internal/device"
	"switchflow/internal/workload"
)

// ErrNotElastic is returned when a baseline is asked to admit a job with
// virtual-node placement (Placement.VNodes or a gang), and by
// SwitchFlowScheduler's Grow, Shrink and Rebind on a job admitted without
// Placement.VNodes. Test with errors.Is.
var ErrNotElastic = errors.New("elastic placement not supported")

// Scheduler is the common surface of SwitchFlow and the baselines.
type Scheduler interface {
	// AddJob admits a job described by spec. The spec is validated first;
	// errors wrap ErrInvalidJobSpec.
	AddJob(spec JobSpec) (*Job, error)
	// StopJob halts a job's loop.
	StopJob(*Job)
	// Name identifies the scheduling policy.
	Name() string
	// FaultStats reports fault-injection and recovery counters; all zero
	// when the scheduler was built without WithFaultPlan.
	FaultStats() FaultStats
}

// SwitchFlowScheduler is the preemptive multitasking scheduler (§3).
type SwitchFlowScheduler struct {
	m   *core.Manager
	sim *Simulation
}

var _ Scheduler = (*SwitchFlowScheduler)(nil)

// Name implements Scheduler.
func (s *SwitchFlowScheduler) Name() string { return "switchflow" }

// AddJob implements Scheduler. Admission fails when the spec is invalid
// or when the job's persistent state does not fit next to
// already-admitted jobs (§3.4's OOM-freedom).
func (s *SwitchFlowScheduler) AddJob(spec JobSpec) (*Job, error) {
	cfg, err := s.sim.specConfig(spec)
	if err != nil {
		return nil, err
	}
	inner, err := s.m.AddJob(cfg)
	if err != nil {
		return nil, err
	}
	return &Job{inner: inner}, nil
}

// StopJob implements Scheduler.
func (s *SwitchFlowScheduler) StopJob(j *Job) { s.m.StopJob(j.inner) }

// AddSharedGroup admits correlated jobs sharing one input pipeline
// (multi-task learning, §3.4/Listing 1). Members run in lockstep
// round-robin over each preprocessed batch.
func (s *SwitchFlowScheduler) AddSharedGroup(specs []JobSpec) (*SharedGroup, error) {
	cfgs := make([]workload.Config, len(specs))
	for i, spec := range specs {
		cfg, err := s.sim.specConfig(spec)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	_, inners, err := s.m.AddSharedGroup(cfgs)
	if err != nil {
		return nil, err
	}
	jobs := make([]*Job, len(inners))
	for i, inner := range inners {
		jobs[i] = &Job{inner: inner}
	}
	return &SharedGroup{sched: s, jobs: jobs}, nil
}

// Preemptions returns the number of preemption events so far.
func (s *SwitchFlowScheduler) Preemptions() int { return s.m.Preemptions }

// Migrations returns the number of device migrations so far (preemptive
// and fault-driven).
func (s *SwitchFlowScheduler) Migrations() int { return s.m.Migrations }

// PreemptionP95 returns the 95th-percentile GPU-grant latency (§5.2.3).
func (s *SwitchFlowScheduler) PreemptionP95() time.Duration {
	return s.m.PreemptionLatencies.Percentile(95)
}

// FaultStats implements Scheduler.
func (s *SwitchFlowScheduler) FaultStats() FaultStats { return faultStatsFrom(s.m.FaultCounters()) }

// Grow raises an elastic job's virtual-node count to n at its next
// epoch-safe point: the batch re-splits across n virtual nodes without a
// restart, extending onto idle placeable GPUs first. It wraps
// ErrNotElastic for a job admitted without Placement.VNodes.
func (s *SwitchFlowScheduler) Grow(j *Job, n int) error {
	if !j.inner.Elastic() {
		return fmt.Errorf("switchflow: grow %q: %w (admit with Placement.VNodes)", j.Name(), ErrNotElastic)
	}
	if n <= j.inner.Binding().Len() {
		return fmt.Errorf("switchflow: grow %q to %d vnodes: already has %d", j.Name(), n, j.inner.Binding().Len())
	}
	return s.m.Resize(j.inner, n)
}

// Shrink lowers an elastic job's virtual-node count to n, dropping the
// highest-indexed vnodes and freeing replicas left unused.
func (s *SwitchFlowScheduler) Shrink(j *Job, n int) error {
	if !j.inner.Elastic() {
		return fmt.Errorf("switchflow: shrink %q: %w (admit with Placement.VNodes)", j.Name(), ErrNotElastic)
	}
	if n >= j.inner.Binding().Len() {
		return fmt.Errorf("switchflow: shrink %q to %d vnodes: only has %d", j.Name(), n, j.inner.Binding().Len())
	}
	return s.m.Resize(j.inner, n)
}

// Rebind moves virtual node vn of an elastic job onto GPU gpu at the
// job's next epoch-safe point.
func (s *SwitchFlowScheduler) Rebind(j *Job, vn, gpu int) error {
	if !j.inner.Elastic() {
		return fmt.Errorf("switchflow: rebind %q: %w (admit with Placement.VNodes)", j.Name(), ErrNotElastic)
	}
	return s.m.RebindJob(j.inner, vn, device.GPUID(gpu))
}

// Drain marks GPU gpu as draining: new placements avoid it and every
// bound virtual node (or legacy job) is moved off it gracefully.
func (s *SwitchFlowScheduler) Drain(gpu int) error {
	return s.m.DrainDevice(device.GPUID(gpu))
}

// Undrain clears a drain mark so the GPU accepts placements again;
// bindings moved away do not move back automatically.
func (s *SwitchFlowScheduler) Undrain(gpu int) error {
	return s.m.UndrainDevice(device.GPUID(gpu))
}

// RecoveryP95 returns the 95th-percentile fault-to-serving-again latency
// across recovered jobs (migrations after device loss, restarts after
// transient errors).
func (s *SwitchFlowScheduler) RecoveryP95() time.Duration {
	return s.m.RecoveryLatencies.Percentile(95)
}

// JobDeviceName reports the device a job currently runs on ("gpu:1",
// "cpu:0"), reflecting migrations.
func (s *SwitchFlowScheduler) JobDeviceName(j *Job) string {
	return s.m.JobDevice(j.inner).String()
}

// SharedGroup is a set of jobs sharing the data preprocessing stage.
// Each member is an ordinary job: StopJob stops one member, and the
// others keep their turns.
type SharedGroup struct {
	sched *SwitchFlowScheduler
	jobs  []*Job
}

// Jobs returns the member handles.
func (g *SharedGroup) Jobs() []*Job { return g.jobs }

// Stop halts the group: StopJob on every member.
func (g *SharedGroup) Stop() {
	for _, j := range g.jobs {
		g.sched.StopJob(j)
	}
}

// specConfig validates a spec against this simulation's machine and
// lowers it to a workload config.
func (s *Simulation) specConfig(spec JobSpec) (workload.Config, error) {
	if err := spec.Validate(); err != nil {
		return workload.Config{}, err
	}
	p := spec.primary()
	if p.Device >= s.GPUCount() {
		return workload.Config{}, fmt.Errorf("%w: GPU index %d out of range (machine has %d GPUs)",
			ErrInvalidJobSpec, p.Device, s.GPUCount())
	}
	if spec.implicitGang(p) && spec.Replicas > s.GPUCount()-p.Device {
		// Bounded before placement builds the replica set: the first
		// replica past the machine would sit on GPU GPUCount.
		return workload.Config{}, fmt.Errorf("%w: virtual node GPU index %d out of range (machine has %d GPUs)",
			ErrInvalidJobSpec, s.GPUCount(), s.GPUCount())
	}
	p = spec.placement()
	for _, g := range p.Fallbacks {
		if g >= s.GPUCount() {
			return workload.Config{}, fmt.Errorf("%w: fallback GPU index %d out of range (machine has %d GPUs)",
				ErrInvalidJobSpec, g, s.GPUCount())
		}
	}
	for _, g := range p.VNodes {
		if g >= s.GPUCount() {
			return workload.Config{}, fmt.Errorf("%w: virtual node GPU index %d out of range (machine has %d GPUs)",
				ErrInvalidJobSpec, g, s.GPUCount())
		}
	}
	return spec.toConfig()
}

// baselineScheduler exposes the baseline runtime through the Scheduler
// interface.
type baselineScheduler struct {
	name string
	sim  *Simulation
	rt   *baseline.Scheduler
}

var _ Scheduler = (*baselineScheduler)(nil)

func (b *baselineScheduler) Name() string { return b.name }

func (b *baselineScheduler) AddJob(spec JobSpec) (*Job, error) {
	cfg, err := b.sim.specConfig(spec)
	if err != nil {
		return nil, err
	}
	if len(cfg.VNodes) > 0 {
		return nil, fmt.Errorf("%s: job %q uses virtual nodes: %w", b.name, spec.Name, ErrNotElastic)
	}
	inner, err := b.rt.AddJob(cfg)
	if err != nil {
		return nil, err
	}
	return &Job{inner: inner}, nil
}

func (b *baselineScheduler) StopJob(j *Job) { b.rt.StopJob(j.inner) }

func (b *baselineScheduler) FaultStats() FaultStats { return faultStatsFrom(b.rt.FaultStats()) }
