package switchflow

import (
	"time"

	"switchflow/internal/fault"
	"switchflow/internal/metrics"
)

// Fault sentinels, re-exported for errors.Is on Job.Err after an
// injected fault kills a job.
var (
	// ErrDeviceLost is the crash cause of jobs killed by a GPU loss.
	ErrDeviceLost = fault.ErrDeviceLost
	// ErrTransient is the crash cause of baseline jobs killed by a
	// transient kernel/ECC fault (SwitchFlow jobs restart instead).
	ErrTransient = fault.ErrTransient
)

// FaultPlan is a deterministic schedule of injected faults, attached to a
// scheduler with WithFaultPlan. Builder methods append events and return
// the plan for chaining.
type FaultPlan struct {
	inner fault.Plan
}

// NewFaultPlan creates an empty fault plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// LoseGPU schedules a device loss: GPU gpu drops off the bus at t, its
// in-flight kernels are dropped and its memory contents are gone.
// SwitchFlow jobs with fallbacks migrate and restore from their host
// checkpoints; baseline jobs on the device die.
func (p *FaultPlan) LoseGPU(at time.Duration, gpu int) *FaultPlan {
	p.inner.LoseGPU(at, gpu)
	return p
}

// TransientError schedules a one-shot kernel/ECC error on GPU gpu at t.
// The SwitchFlow victim rolls back to its last checkpoint and restarts
// after an exponential backoff; a baseline victim's process dies.
func (p *FaultPlan) TransientError(at time.Duration, gpu int) *FaultPlan {
	p.inner.Transient(at, gpu)
	return p
}

// StallInputs schedules an input-pipeline stall of length d at t (a
// storage or preprocessing hiccup); compute drains prefetched batches.
func (p *FaultPlan) StallInputs(at, d time.Duration) *FaultPlan {
	p.inner.StallInputs(at, d)
	return p
}

// DegradeGPU slows GPU gpu's kernels by factor for d (thermal
// throttling), after which the device heals.
func (p *FaultPlan) DegradeGPU(at time.Duration, gpu int, factor float64, d time.Duration) *FaultPlan {
	p.inner.Degrade(at, gpu, factor, d)
	return p
}

// Len returns the number of scheduled fault events.
func (p *FaultPlan) Len() int { return len(p.inner.Events) }

// RandomFaultPlan draws a seed-deterministic fault mix (transient errors
// and input stalls) over [0, horizon) targeting the first gpus devices.
// Identical arguments always produce identical plans.
func RandomFaultPlan(seed int64, horizon time.Duration, gpus int) *FaultPlan {
	return &FaultPlan{inner: fault.Random(seed, horizon, gpus)}
}

// FaultStats are a scheduler's fault-injection and recovery counters;
// all fields are zero when no fault plan is attached.
type FaultStats struct {
	// Injected counts fault events delivered to this scheduler.
	Injected int
	// DeviceLost, Transients, and InputStalls break Injected down by kind.
	DeviceLost  int
	Transients  int
	InputStalls int
	// JobsLost counts jobs that died to a fault without recovering.
	JobsLost int
	// Migrations counts fault-driven device migrations (SwitchFlow only).
	Migrations int
	// Restarts counts crash-and-restart recoveries (SwitchFlow only).
	Restarts int
	// Checkpoints counts periodic host snapshots taken.
	Checkpoints int
	// IterationsLost counts training iterations rolled back and re-run.
	IterationsLost int
}

func faultStatsFrom(c metrics.FaultCounters) FaultStats {
	return FaultStats{
		Injected:       c.Injected,
		DeviceLost:     c.DeviceLost,
		Transients:     c.Transients,
		InputStalls:    c.InputStalls,
		JobsLost:       c.JobsLost,
		Migrations:     c.Migrations,
		Restarts:       c.Restarts,
		Checkpoints:    c.Checkpoints,
		IterationsLost: c.IterationsLost,
	}
}
