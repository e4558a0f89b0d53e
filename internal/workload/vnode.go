package workload

import (
	"fmt"
	"time"

	"switchflow/internal/cost"
	"switchflow/internal/device"
	"switchflow/internal/vnode"
)

// This file is the job side of the virtual-node layer (internal/vnode,
// after VirtualFlow arXiv:2009.09523): an elastic training job's batch is
// split across virtual nodes, each computing a share-sized shard of the
// step on its bound device with a full data-parallel weight replica. The
// binding is runtime state — the scheduler core re-splits it at
// epoch-safe points (grow/shrink/rebind/drain/fault healing) and the job
// memoizes one graph version per (device, share) it has ever run.

// shardKey identifies a share-sized graph version of an elastic job.
type shardKey struct {
	dev     device.ID
	samples int
}

// Elastic reports whether the job runs on explicit virtual nodes (it was
// admitted with Config.VNodes). Every job runs on the scheduler's shard
// path; elasticity only changes its preemption and recovery policies.
func (j *Job) Elastic() bool { return len(j.Cfg.VNodes) > 0 }

// Binding returns the job's current virtual-node binding. Plain jobs
// report a single implicit vnode covering the whole batch on the device
// they currently run on.
func (j *Job) Binding() vnode.Binding { return j.binding }

// SetBinding installs a new binding. Callers (the scheduler core) must
// only do this at epoch-safe points — between steps, with no shard
// compute in flight — and are responsible for moving weight replicas.
func (j *Job) SetBinding(b vnode.Binding) { j.binding = b }

// StepPrice prices one training step of the given sample count on dev:
// the serialized kernel cost of the share-sized compute subgraph under
// the roofline model. It is the vnode.Pricer elastic splits use, so
// heterogeneous devices get throughput-proportional shares.
func (j *Job) StepPrice(dev device.ID, samples int) (time.Duration, error) {
	v, err := j.shardVersion(dev, samples)
	if err != nil {
		return 0, err
	}
	if dev.Kind == device.KindGPU {
		gpu := j.machine.GPU(dev.Index)
		if gpu == nil {
			return 0, fmt.Errorf("workload: job %q: no GPU %d", j.Cfg.Name, dev.Index)
		}
		return cost.SerialGPUEstimate(v.Compute, gpu.Class), nil
	}
	return cost.SerialCPUEstimate(v.Compute, j.machine.CPU), nil
}

// shardVersion returns the graph version for a shard of the given sample
// count on dev, building and memoizing it on demand. The full-batch
// version aliases the job's per-device version.
func (j *Job) shardVersion(dev device.ID, samples int) (*Version, error) {
	if samples == j.Cfg.Batch {
		return j.Version(dev)
	}
	key := shardKey{dev: dev, samples: samples}
	if v, ok := j.shardVersions[key]; ok {
		return v, nil
	}
	v, err := j.buildVersionBatch(dev, samples)
	if err != nil {
		return nil, err
	}
	j.shardVersions[key] = v
	return v, nil
}

// VNodeVersion returns the compute graph version of vnode i under the
// current binding, sized to the vnode's batch share. A full-batch share
// is sized to the micro-batch its next launch consumes, so a serving
// job's one implicit vnode runs fused request batches.
func (j *Job) VNodeVersion(i int) (*Version, error) {
	if i < 0 || i >= j.binding.Len() {
		return nil, fmt.Errorf("workload: job %q: vnode %d out of range (%d vnodes)", j.Cfg.Name, i, j.binding.Len())
	}
	n := j.binding.Node(i)
	if n.Share == j.Cfg.Batch {
		return j.versionFor(n.Device, j.computeBatchSize())
	}
	return j.shardVersion(n.Device, n.Share)
}

// VNodeScratchBytes is the per-step intermediate footprint of vnode i's
// shard: activations sized to the share (times the micro-batch for a
// full-batch share), not the global batch.
func (j *Job) VNodeScratchBytes(i int) int64 {
	if i < 0 || i >= j.binding.Len() {
		return 0
	}
	samples := j.binding.Node(i).Share
	if samples == j.Cfg.Batch {
		samples *= j.computeBatchSize()
	}
	return j.Cfg.Model.IntermediateBytes(samples, j.Training())
}

// AllocScratchBytes reserves n bytes of iteration scratch on dev,
// accumulating into the job's per-device accounting (several vnodes may
// share a device). CPU scratch is not modelled.
func (j *Job) AllocScratchBytes(dev device.ID, n int64) error {
	if dev.Kind != device.KindGPU || n <= 0 {
		return nil
	}
	if err := j.machine.GPU(dev.Index).Mem.Alloc(n); err != nil {
		return err
	}
	j.intermediate[dev] += n
	return nil
}

// FreeScratchBytes releases up to n bytes of iteration scratch on dev.
// The accounting is clamped so a release after ForgetDevice (device-lost
// invalidated the pool wholesale) is a safe no-op.
func (j *Job) FreeScratchBytes(dev device.ID, n int64) {
	have := j.intermediate[dev]
	if n > have {
		n = have
	}
	if n <= 0 {
		return
	}
	if n == have {
		delete(j.intermediate, dev)
	} else {
		j.intermediate[dev] -= n
	}
	if dev.Kind == device.KindGPU {
		j.machine.GPU(dev.Index).Mem.Free(n)
	}
}
