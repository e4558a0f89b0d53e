package workload

// Gang-scheduled synchronous data-parallel training (ROADMAP item 4,
// after TensorFlow OSDI'16 §4.4 and arXiv:1603.04467): a gang job's
// vnodes are N replicas, each holding a full copy of the weights and
// computing its batch share independently; the step commits only after
// the replicas exchange gradients in a ring all-reduce priced on the
// machine's interconnect fabric. This file owns the workload-side gang
// surface — validation, sync-cost pricing, and the sync-aware vnode
// pricer. internal/core owns when the barrier runs; internal/cluster
// owns where the gang lands.

import (
	"fmt"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/vnode"
)

// validateGang checks the gang shape of a config whose VNodes are set:
// every replica on its own GPU, and a Replicas hint (if any) consistent
// with the materialized vnode list.
func (j *Job) validateGang() error {
	cfg := &j.Cfg
	if !cfg.Gang {
		if cfg.Replicas != 0 {
			return fmt.Errorf("workload: job %q: Replicas is a gang field; set Gang", cfg.Name)
		}
		return nil
	}
	if cfg.Replicas != 0 && cfg.Replicas != len(cfg.VNodes) {
		return fmt.Errorf("workload: job %q: Replicas %d does not match %d virtual nodes", cfg.Name, cfg.Replicas, len(cfg.VNodes))
	}
	seen := make(map[device.ID]bool, len(cfg.VNodes))
	for _, d := range cfg.VNodes {
		if d.Kind != device.KindGPU {
			return fmt.Errorf("workload: job %q: gang replica on %v; replicas need distinct GPUs", cfg.Name, d)
		}
		if seen[d] {
			return fmt.Errorf("workload: job %q: gang replicas must land on distinct GPUs (%v repeats)", cfg.Name, d)
		}
		seen[d] = true
	}
	return nil
}

// Gang reports whether the job is a synchronous data-parallel gang.
func (j *Job) Gang() bool { return j.Cfg.Gang }

// GradientBytes is the volume each replica contributes to the step
// barrier's all-reduce — one full gradient, the size of the parameters.
func (j *Job) GradientBytes() int64 { return j.Cfg.Model.ParamBytes() }

// SyncCostFor prices the ring all-reduce a gang bound to devs pays at
// each step barrier, over the machine's fabric. Non-gang jobs,
// sub-2-replica bindings, and unpriceable rings cost nothing (the
// binding validation rejects the latter before a job runs).
func (j *Job) SyncCostFor(devs []device.ID) time.Duration {
	if !j.Cfg.Gang || len(devs) < 2 {
		return 0
	}
	gpus := make([]int, 0, len(devs))
	for _, d := range devs {
		if d.Kind == device.KindGPU {
			gpus = append(gpus, d.Index)
		}
	}
	cost, err := j.machine.Fabric().RingCost(gpus, j.GradientBytes())
	if err != nil {
		return 0
	}
	return cost
}

// SyncCost prices the all-reduce of the job's current binding.
func (j *Job) SyncCost() time.Duration {
	return j.SyncCostFor(j.binding.DeviceList())
}

// PricerFor returns the pricer vnode.Split uses to size shares across
// devs. Gang jobs fold the device-set-wide gradient-sync cost into every
// replica's step price — ROADMAP item 3's gradient-sync cost modelling:
// the sync term is identical on every replica (the ring advances
// together), so as it grows it flattens the share skew that pure
// compute-speed pricing would give a heterogeneous device set. Non-gang
// jobs price compute alone, exactly as before.
func (j *Job) PricerFor(devs []device.ID) vnode.Pricer {
	if !j.Cfg.Gang {
		return j.stepPriceFn
	}
	sync := j.SyncCostFor(devs)
	return func(dev device.ID, samples int) (time.Duration, error) {
		d, err := j.StepPrice(dev, samples)
		if err != nil {
			return 0, err
		}
		return d + sync, nil
	}
}
