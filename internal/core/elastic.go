package core

import (
	"fmt"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/workload"
)

// This file holds the binding operations of elastic jobs — jobs admitted
// with Config.VNodes, whose batch is split across virtual nodes by
// internal/vnode (VirtualFlow, arXiv:2009.09523) and run by the step
// engine (step.go); heterogeneous shares (priced by internal/cost) finish
// together. The binding is runtime state: Resize, RebindJob and
// DrainDevice re-split it, and every mutation lands at an epoch-safe
// point — between steps, with no shard in flight — via the job's
// pending-op queue. Each distinct bound device holds a full data-parallel
// weight replica, which is what makes zero-restart healing possible:
// losing one device re-seeds its replacement from a surviving replica
// instead of rolling back to a checkpoint.

// Resize grows or shrinks a running elastic job to n virtual nodes at
// its next epoch-safe point, re-splitting the batch without a restart.
// New vnodes prefer placeable GPUs not yet in the binding (in index
// order), then time-multiplex the existing set; shrinking drops the
// highest-indexed vnodes and frees replicas on devices left unused.
func (m *Manager) Resize(job *workload.Job, n int) error {
	js := m.stateOf(job)
	if js == nil {
		return fmt.Errorf("core: resize: unknown job")
	}
	if !job.Elastic() {
		return fmt.Errorf("core: resize: job %q was not admitted with virtual nodes", job.Cfg.Name)
	}
	if n < 1 {
		return fmt.Errorf("core: resize: vnode count must be >= 1, got %d", n)
	}
	if n > job.Cfg.Batch {
		return fmt.Errorf("core: resize: %d vnodes exceed batch %d (each needs >= 1 sample)", n, job.Cfg.Batch)
	}
	m.queueOp(js, func() { m.applyResize(js, n) })
	return nil
}

func (m *Manager) applyResize(js *jobState, n int) {
	b := js.job.Binding()
	if n == b.Len() {
		return
	}
	devs := b.DeviceList()
	if n < len(devs) {
		devs = devs[:n]
	} else {
		base := len(devs)
		for i := range m.machine.GPUs {
			if len(devs) >= n {
				break
			}
			d := device.GPUID(i)
			if m.machine.Placeable(d) && !b.Uses(d) {
				devs = append(devs, d)
			}
		}
		for len(devs) < n {
			devs = append(devs, devs[(len(devs)-base)%base])
		}
	}
	// A failed grow leaves the old binding in force; the error surfaced at
	// Resize-call time for everything checkable there.
	_ = m.relocate(js, devs, "resize", nil)
}

// RebindJob moves virtual node i of a running elastic job onto dev at
// the job's next epoch-safe point.
func (m *Manager) RebindJob(job *workload.Job, i int, dev device.ID) error {
	js := m.stateOf(job)
	if js == nil {
		return fmt.Errorf("core: rebind: unknown job")
	}
	if !job.Elastic() {
		return fmt.Errorf("core: rebind: job %q was not admitted with virtual nodes", job.Cfg.Name)
	}
	if i < 0 || i >= job.Binding().Len() {
		return fmt.Errorf("core: rebind: vnode %d out of range (%d vnodes)", i, job.Binding().Len())
	}
	if dev.Kind != device.KindGPU || m.machine.GPU(dev.Index) == nil {
		return fmt.Errorf("core: rebind: no such GPU %v", dev)
	}
	if !m.machine.Placeable(dev) {
		return fmt.Errorf("core: rebind: %v is not placeable (failed or draining)", dev)
	}
	m.queueOp(js, func() { m.applyRebindVNode(js, i, dev) })
	return nil
}

func (m *Manager) applyRebindVNode(js *jobState, i int, dev device.ID) {
	b := js.job.Binding()
	if i >= b.Len() || b.Node(i).Device == dev {
		return // the binding changed under the queued op; nothing to do
	}
	devs := b.DeviceList()
	devs[i] = dev
	// A failed rebind leaves the old binding in force.
	_ = m.relocate(js, devs, "rebind", nil)
}

// DrainDevice marks the GPU as draining and moves every bound virtual
// node off it at each owning job's next epoch-safe point. Elastic jobs
// rebind (paying at most a peer-path replica copy, restart counter
// untouched); plain jobs migrate gracefully through the same machinery
// preemption migration uses. Jobs with nowhere to go keep running on the
// draining device — drain is administrative, not a fault.
func (m *Manager) DrainDevice(dev device.ID) error {
	if dev.Kind != device.KindGPU || dev.Index < 0 || dev.Index >= len(m.machine.GPUs) {
		return fmt.Errorf("core: drain: no such GPU %v", dev)
	}
	m.machine.GPU(dev.Index).SetDraining(true)
	for _, js := range m.jobs {
		js := js
		if js.stopped || js.job.Crashed() || !js.job.Binding().Uses(dev) {
			continue
		}
		if js.job.Elastic() {
			m.queueOp(js, func() { m.applyDrainRebind(js, dev) })
		} else {
			m.queueOp(js, func() { m.applyDrainMigrate(js, dev) })
		}
	}
	return nil
}

// UndrainDevice clears the drain mark, making the GPU placeable again.
// Bindings moved away by a drain do not move back automatically.
func (m *Manager) UndrainDevice(dev device.ID) error {
	if dev.Kind != device.KindGPU || dev.Index < 0 || dev.Index >= len(m.machine.GPUs) {
		return fmt.Errorf("core: undrain: no such GPU %v", dev)
	}
	m.machine.GPU(dev.Index).SetDraining(false)
	return nil
}

func (m *Manager) applyDrainRebind(js *jobState, dev device.ID) {
	if !js.job.Binding().Uses(dev) {
		return // a fault (or an earlier op) already moved it
	}
	if devs, ok := m.rebindAway(js, dev); ok {
		_ = m.relocate(js, devs, "drain", nil)
	}
	// Otherwise, or when the move fails, there is nowhere to go: stay on
	// the draining device.
}

func (m *Manager) applyDrainMigrate(js *jobState, from device.ID) {
	if js.current() != from || js.stopped || js.job.Crashed() {
		return
	}
	to, ok := m.drainMigrateTarget(js, from)
	if !ok {
		return // nowhere to go; stay on the draining device
	}
	m.purgeRequests(js)
	m.releaseShard(js.shards[0])
	// A failed move leaves the job running on the draining device.
	_ = m.relocate(js, []device.ID{to}, "drain", nil)
}

// drainMigrateTarget picks where a plain job leaves a draining device:
// the first placeable configured fallback with room, else any placeable
// GPU with room (drain is operator-driven, so liberality beats stalling).
func (m *Manager) drainMigrateTarget(js *jobState, from device.ID) (device.ID, bool) {
	if d, ok := m.fallbackWithRoom(js, from, m.machine.Placeable); ok {
		return d, true
	}
	for i := range m.machine.GPUs {
		if d := device.GPUID(i); d != from && m.hasRoom(js, d) && m.machine.Placeable(d) {
			return d, true
		}
	}
	return device.ID{}, false
}

// rebindAway returns the binding's per-vnode device list with every vnode
// on dev moved, round-robin, to where displaced vnodes may go, in
// preference order: devices already in the binding (a replica is
// resident — zero transfer), then configured GPU fallbacks, then any
// placeable GPU. ok is false when there is nowhere to go.
func (m *Manager) rebindAway(js *jobState, dev device.ID) ([]device.ID, bool) {
	var targets []device.ID
	add := func(d device.ID) {
		if d == dev || d.Kind != device.KindGPU || !m.machine.Placeable(d) {
			return
		}
		for _, e := range targets {
			if e == d {
				return
			}
		}
		targets = append(targets, d)
	}
	for _, d := range js.job.Binding().Devices() {
		add(d)
	}
	for _, d := range js.job.Cfg.Fallbacks {
		add(d)
	}
	for i := range m.machine.GPUs {
		add(device.GPUID(i))
	}
	if len(targets) == 0 {
		return nil, false
	}
	devs := js.job.Binding().DeviceList()
	k := 0
	for i, d := range devs {
		if d == dev {
			devs[i] = targets[k%len(targets)]
			k++
		}
	}
	return devs, true
}

// healElastic is zero-restart fault healing: a lost device takes one
// replica and any in-flight shards with it (the caller discarded the
// step), but the surviving replicas still hold the current weights, so
// the step is simply redone on a re-split binding — no checkpoint
// rollback, no Restarts increment.
func (m *Manager) healElastic(js *jobState, lost device.ID) {
	devs, ok := m.rebindAway(js, lost)
	if !ok {
		m.loseJob(js, lost, fmt.Errorf("core: %s: device %v lost with no healthy rebind target", js.job.Cfg.Name, lost),
			"no healthy rebind target")
		return
	}
	if err := m.relocate(js, devs, "fault", nil); err != nil {
		m.loseJob(js, lost, fmt.Errorf("core: %s: heal after losing %v: %w", js.job.Cfg.Name, lost, err), "rebind failed")
	}
}

// resyncReplica heals an elastic job's transient kernel/ECC fault on dev
// when a sibling replica survives: the corrupted replica is re-seeded
// over the peer path — no rollback and no restart. It reports false when
// there is no sibling to copy from.
func (m *Manager) resyncReplica(js *jobState, dev device.ID) bool {
	if !js.job.WeightsOn(dev) {
		return false
	}
	for _, src := range js.job.Binding().Devices() {
		if src == dev || !js.job.WeightsOn(src) || !m.machine.Healthy(src) {
			continue
		}
		path, err := m.machine.CopyPath(src, dev)
		if err != nil {
			return false
		}
		faultAt := m.eng.Now()
		epoch := js.epoch
		js.weightsReady = false
		m.bus.Emit(obs.Event{
			Kind:   obs.KindRestore,
			Ctx:    js.job.Ctx,
			Job:    js.job.Cfg.Name,
			Device: dev.String(),
			From:   src.String(),
			Name:   "replica-sync",
		})
		path.Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), func() {
			if js.epoch != epoch || js.stopped || js.job.Crashed() {
				return
			}
			js.weightsReady = true
			m.RecoveryLatencies.Add(m.eng.Now() - faultAt)
			m.pump(js)
		})
		return true
	}
	return false
}
