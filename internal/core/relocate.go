package core

import (
	"fmt"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/vnode"
)

// This file is the one relocation path: every binding change of a plain
// or elastic job — preemption migration, drain, device-loss recovery,
// resize, rebind and healing — goes through relocate. A plain job is the
// one-vnode binding, so its migration is a rebinding of vnode 0. Weights
// move off the critical path (§3.3, Table 1): each newly bound device
// gets a replica seeded from a healthy resident copy, or from the host
// when none survives, and the devices the job left keep their copies
// until the seeding lands.

// relocation is one binding change in flight: the copies still to land
// and what their landing does.
type relocation struct {
	js    *jobState
	old   vnode.Binding
	epoch int
	// copies counts the seeding transfers outstanding, plus one hold that
	// relocate itself releases once every transfer is issued.
	copies   int
	recovery bool
	faultAt  time.Duration
	landed   func()
}

// relocate moves the job onto the binding devs, one device per vnode (a
// plain job has one), at an epoch-safe point. It emits the move's events
// — Migrate for a plain job (plus the Restore of its rollback after a
// device loss), Resize/Bind/Rebind for an elastic one — allocates a
// weight replica on every newly bound device and seeds it, and when the
// last copy lands frees the devices the job no longer binds, marks it
// ready and re-pumps. reason tags the events; "fault" marks a fault
// recovery, which records a recovery sample. landed, when non-nil, fires
// once the copies land, also when a fault made them stale (the
// synchronous-transfer ablation's grant release). An error leaves the old
// binding in force.
func (m *Manager) relocate(js *jobState, devs []device.ID, reason string, landed func()) error {
	job := js.job
	old := job.Binding()
	nb, err := vnode.Split(job.Cfg.Batch, devs, job.PricerFor(devs))
	if err != nil {
		return err
	}
	// A checkpointed job's state is on the host: it moves without a
	// replica, and restoreCheckpoint brings it back at the next grant.
	seed := !js.checkpointed
	// Pre-flight the memory so a failed move cannot strand the job with a
	// half-committed binding.
	for i := 0; seed && i < nb.Len(); i++ {
		d := nb.Node(i).Device
		if d.Kind != device.KindGPU || job.WeightsOn(d) {
			continue
		}
		gpu := m.machine.GPU(d.Index)
		if gpu == nil || gpu.Failed() {
			return fmt.Errorf("core: %s: rebind target %v is unusable", job.Cfg.Name, d)
		}
		if gpu.Mem.Available() < job.WeightBytes() {
			return fmt.Errorf("core: %s: no room for a weight replica on %v", job.Cfg.Name, d)
		}
	}
	var src device.ID
	hasSrc := false
	for i := 0; i < old.Len() && !hasSrc; i++ {
		src = old.Node(i).Device
		hasSrc = job.WeightsOn(src) && m.machine.Healthy(src)
	}

	if job.Elastic() {
		m.emitRebinding(js, old, nb, reason)
	} else {
		m.Migrations++
		m.bus.Emit(obs.Event{
			Kind:   obs.KindMigrate,
			Ctx:    job.Ctx,
			Job:    job.Cfg.Name,
			From:   old.Node(0).Device.String(),
			Device: nb.Node(0).Device.String(),
			Name:   reason,
		})
		if reason == "fault" {
			// The lost device took the only copy: the job rolls back to its
			// host checkpoint.
			job.Restarted()
			m.bus.Emit(obs.Event{
				Kind:   obs.KindRestore,
				Ctx:    job.Ctx,
				Job:    job.Cfg.Name,
				Device: nb.Node(0).Device.String(),
				Name:   "device-lost",
				Count:  job.RollbackToCheckpoint(),
			})
		}
	}
	job.SetBinding(nb)
	js.rebuildShards()

	r := &relocation{js: js, old: old, epoch: js.epoch, copies: 1,
		recovery: reason == "fault" && seed, faultAt: m.eng.Now(), landed: landed}
	done := func() { m.land(r) }
	bytes, tensors := job.WeightBytes(), job.Cfg.Model.WeightVars()
	for i := 0; seed && i < nb.Len(); i++ {
		d := nb.Node(i).Device
		if job.WeightsOn(d) {
			continue
		}
		if err := job.AllocWeights(d); err != nil {
			// Pre-flight said it fits; failing here means the device model
			// changed underneath the move — fatal for the job.
			m.loseJob(js, d, fmt.Errorf("core: %s: replica alloc on %v: %w", job.Cfg.Name, d, err), "replica allocation failed")
			return nil
		}
		js.weightsReady = false
		r.copies++
		var path *device.CopyEngine
		if hasSrc {
			// Only a host-to-host move has no path, and it needs no copy.
			path, _ = m.machine.CopyPath(src, d)
		}
		switch {
		case path != nil:
			path.Transfer(bytes, tensors, done)
		case d.Kind == device.KindGPU:
			m.machine.HostToDevice(d.Index).Transfer(bytes, tensors, done)
		default:
			// Host state is already in host memory.
			m.eng.After(0, done)
		}
	}
	m.land(r)
	return nil
}

// land retires one of a relocation's copies; the last one frees every
// device the job's current binding no longer uses — also when a fault
// made the copies stale, so no replica outlives its binding — and, unless
// stale, marks the job ready and re-pumps it.
func (m *Manager) land(r *relocation) {
	if r.copies--; r.copies > 0 {
		return
	}
	js := r.js
	now := js.job.Binding()
	for i := 0; i < r.old.Len(); i++ {
		if d := r.old.Node(i).Device; !now.Uses(d) {
			// Safe after a fault took d down mid-copy: ForgetDevice zeroed
			// its accounting, so this free is a no-op there.
			js.job.FreeWeights(d)
		}
	}
	if js.epoch == r.epoch && !js.stopped && !js.job.Crashed() {
		if !js.checkpointed {
			js.weightsReady = true
		}
		if r.recovery {
			m.RecoveryLatencies.Add(m.eng.Now() - r.faultAt)
		}
		m.pump(js)
	}
	if r.landed != nil {
		r.landed()
	}
}

// emitRebinding publishes an elastic binding change: a Resize when the
// vnode count changes, a Bind per added vnode and a Rebind per vnode that
// moved.
func (m *Manager) emitRebinding(js *jobState, old, nb vnode.Binding, reason string) {
	job := js.job
	if nb.Len() != old.Len() {
		name := "grow"
		if nb.Len() < old.Len() {
			name = "shrink"
		}
		m.bus.Emit(obs.Event{
			Kind:   obs.KindResize,
			Ctx:    job.Ctx,
			Job:    job.Cfg.Name,
			Device: nb.Node(0).Device.String(),
			Name:   name,
			Count:  nb.Len(),
		})
	}
	for i := 0; i < nb.Len(); i++ {
		if i >= old.Len() {
			m.bus.Emit(obs.Event{
				Kind:   obs.KindBind,
				Ctx:    job.Ctx,
				Job:    job.Cfg.Name,
				Device: nb.Node(i).Device.String(),
				Count:  i,
			})
			continue
		}
		if od := old.Node(i).Device; od != nb.Node(i).Device {
			m.bus.Emit(obs.Event{
				Kind:   obs.KindRebind,
				Ctx:    job.Ctx,
				Job:    job.Cfg.Name,
				From:   od.String(),
				Device: nb.Node(i).Device.String(),
				Name:   reason,
				Count:  i,
			})
		}
	}
}
