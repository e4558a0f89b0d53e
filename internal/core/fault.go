package core

import (
	"fmt"
	"slices"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/fault"
	"switchflow/internal/obs"
)

// This file is SwitchFlow's self-healing path (§3.4, §5.2 under induced
// faults): the manager implements fault.Handler, reacting to device loss
// by migrating victims through their configured Fallbacks with state
// restored from host checkpoints, to transient kernel/ECC errors by
// crash-and-restart with exponential backoff, and to input stalls by
// pausing the input pipelines while compute drains prefetched batches.

var _ fault.Handler = (*Manager)(nil)

// HandleFault implements fault.Handler. The injector has already applied
// the hardware effect (a lost GPU is failed and its memory invalidated)
// and emitted the KindFaultInject when this runs.
func (m *Manager) HandleFault(ev fault.Event) {
	switch ev.Kind {
	case fault.KindDeviceLost:
		m.handleDeviceLost(ev.Device)
	case fault.KindTransient:
		m.handleTransient(ev.Device)
	case fault.KindInputStall:
		m.handleInputStall(ev.Duration)
	case fault.KindDegraded:
		// Hardware effect only: kernels on the device run slower until it
		// heals; no job state is at risk.
	}
}

// handleDeviceLost recovers every job bound to the lost device by its
// policy: an elastic job heals onto a re-split binding from its surviving
// replicas; a plain job migrates to a healthy fallback, restoring weights
// from the host checkpoint (the device copy is gone, so the cheap peer
// path of §3.3 is unavailable). A shared group's live members on the
// device move as one: all to the first fallback with room for all of
// them, or all lost. Jobs with nowhere to go crash — even SwitchFlow
// cannot run a job with nowhere to put it.
func (m *Manager) handleDeviceLost(dev device.ID) {
	if dev.Kind != device.KindGPU || dev.Index >= len(m.machine.GPUs) {
		return
	}
	// The arbiter's grant queue only ever holds shards bound to this GPU;
	// every one of them is about to be migrated, healed, or crashed, so the
	// whole arbiter resets.
	m.arbs[dev.Index] = &arbiter{}
	for _, js := range m.jobs {
		// Any job may hold stale weight bytes on the lost device (e.g. a
		// migration source not yet freed); the pool was invalidated
		// wholesale, so drop the accounting rather than double-freeing.
		js.job.ForgetDevice(dev)
	}
	for _, js := range m.jobs {
		if js.stopped || js.job.Crashed() || !js.job.Binding().Uses(dev) {
			continue
		}
		movers := []*jobState{js}
		if js.group != nil {
			movers = slices.DeleteFunc(slices.Clone(js.group.members), func(mb *jobState) bool {
				return !mb.live() || !mb.job.Binding().Uses(dev)
			})
		}
		for _, mv := range movers {
			mv.epoch++
			m.discardStep(mv, dev)
			mv.restarting, mv.restoring, mv.checkpointRequested = false, false, false
		}
		if js.job.Elastic() {
			m.healElastic(js, dev)
			continue
		}
		// Unlike preemption's pickFallback, recovery ignores who owns the
		// target — surviving beats avoiding contention.
		to, ok := m.fallbackWithRoom(js, dev, m.machine.Healthy)
		for _, mv := range movers {
			if !ok {
				m.loseJob(mv, dev, fmt.Errorf("core: %s: %w (%v, no healthy fallback)",
					mv.job.Cfg.Name, fault.ErrDeviceLost, dev), "no healthy fallback")
				continue
			}
			if err := m.relocate(mv, []device.ID{to}, "fault", nil); err != nil {
				m.loseJob(mv, to, fmt.Errorf("core: restore %s: %w", mv.job.Cfg.Name, err), "restore allocation failed")
			}
		}
	}
}

// handleTransient recovers the job the kernel/ECC fault on dev hits: the
// in-flight step is corrupted and discarded. An elastic job with a
// surviving sibling replica re-seeds the corrupted one without a restart;
// otherwise the fault takes the only copy and the job restarts from its
// last checkpoint. The hardware itself stays usable, so nothing migrates.
func (m *Manager) handleTransient(dev device.ID) {
	js := m.transientVictim(dev)
	if js == nil {
		return
	}
	js.epoch++
	m.discardStep(js, device.ID{})
	if js.job.Elastic() && m.resyncReplica(js, dev) {
		return
	}
	m.restart(js, dev)
}

// restart is crash-and-restart with exponential backoff after a fault on
// dev: the job rolls back to its last checkpoint, backs off in virtual
// time, reloads its weights from the host checkpoint (ECC faults taint
// device state), and resumes.
func (m *Manager) restart(js *jobState, dev device.ID) {
	js.restarting = true
	js.job.Restarted()
	m.bus.Emit(obs.Event{
		Kind:   obs.KindRestore,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: dev.String(),
		Name:   "transient",
		Count:  js.job.RollbackToCheckpoint(),
	})
	backoff := js.job.NextRestartBackoff()
	faultAt := m.eng.Now()
	epoch := js.epoch
	m.eng.After(backoff, func() {
		if js.epoch != epoch || js.stopped || js.job.Crashed() {
			return
		}
		finish := func() {
			if js.epoch != epoch || js.stopped || js.job.Crashed() {
				return
			}
			js.restarting = false
			m.RecoveryLatencies.Add(m.eng.Now() - faultAt)
			m.pump(js)
		}
		// A plain job reloads onto the device it now runs on; an elastic
		// one onto the corrupted replica's device.
		reload := dev
		if !js.job.Elastic() {
			reload = js.current()
		}
		if reload.Kind == device.KindGPU && m.machine.Healthy(reload) {
			h2d := m.machine.HostToDevice(reload.Index)
			h2d.Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), finish)
			return
		}
		finish()
	})
}

// transientVictim picks the job the fault hits: the device's current
// owner, else the first job with state exposed there. A plain job is
// exposed on its own device while its weights are resident (an ECC error
// corrupts resident memory just as well as a running kernel); an elastic
// job wherever it binds a vnode or holds a replica. Admission order keeps
// the choice deterministic.
func (m *Manager) transientVictim(dev device.ID) *jobState {
	if dev.Kind == device.KindGPU && dev.Index < len(m.arbs) {
		if arb := m.arbs[dev.Index]; arb.owner != nil &&
			!arb.owner.stopped && !arb.owner.job.Crashed() && !arb.owner.restarting {
			return arb.owner
		}
	}
	for _, js := range m.jobs {
		if js.stopped || js.job.Crashed() || js.restarting {
			continue
		}
		bound, resident := js.job.Binding().Uses(dev), js.job.WeightsOn(dev)
		if (bound && resident) || (js.job.Elastic() && (bound || resident)) {
			return js
		}
	}
	return nil
}

// scheduleCheckpoint arms the next periodic host checkpoint for a
// training job (Options.CheckpointEvery).
func (m *Manager) scheduleCheckpoint(js *jobState) {
	m.eng.After(m.opts.CheckpointEvery, func() { m.takeCheckpoint(js) })
}

// takeCheckpoint snapshots the job's persistent state to host memory,
// paying the D2H transfer when the state lives on a healthy GPU. The
// snapshot is durable (RecordCheckpoint) once the transfer lands; faults
// striking mid-transfer leave the previous checkpoint in force.
func (m *Manager) takeCheckpoint(js *jobState) {
	if js.stopped || js.job.Crashed() {
		return
	}
	bytes := js.job.CheckpointBytes()
	dev := js.current()
	onGPU := dev.Kind == device.KindGPU && m.machine.Healthy(dev) &&
		!js.checkpointed && js.weightsReady
	if bytes == 0 || !onGPU {
		// State already host-resident (CPU placement, Gandiva checkpoint-out,
		// or mid-restore) — the snapshot is free.
		js.job.RecordCheckpoint()
		m.emitCheckpoint(js)
		m.scheduleCheckpoint(js)
		return
	}
	d2h := m.machine.DeviceToHost(dev.Index)
	epoch := js.epoch
	d2h.Transfer(bytes, js.job.Cfg.Model.WeightVars(), func() {
		if js.stopped || js.job.Crashed() {
			return
		}
		if js.epoch == epoch {
			js.job.RecordCheckpoint()
			m.emitCheckpoint(js)
		}
		m.scheduleCheckpoint(js)
	})
}

// loseJob kills the job over err, returns its weights on every GPU as an
// exiting process would, and publishes its death (a fault with no
// recovery path).
func (m *Manager) loseJob(js *jobState, dev device.ID, err error, why string) {
	js.job.Crash(err)
	for i := range m.arbs {
		js.job.FreeWeights(device.GPUID(i))
	}
	m.bus.Emit(obs.Event{
		Kind:   obs.KindJobLost,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: dev.String(),
		Name:   why,
	})
}

// emitCheckpoint publishes a durable periodic host snapshot.
func (m *Manager) emitCheckpoint(js *jobState) {
	m.bus.Emit(obs.Event{
		Kind:   obs.KindCheckpoint,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: js.current().String(),
		Name:   "periodic",
	})
}

// handleInputStall pauses every job's input pipeline until the stall
// window passes; compute keeps draining already-prefetched batches
// (invariant 2 in reverse — the GPU stays busy while the CPU side is
// starved). Overlapping stalls extend the window.
func (m *Manager) handleInputStall(d time.Duration) {
	until := m.eng.Now() + d
	if until <= m.stallUntil {
		return
	}
	m.stallUntil = until
	m.eng.Schedule(until, func() {
		if m.eng.Now() < m.stallUntil {
			return // a longer stall superseded this one
		}
		for _, js := range m.jobs {
			m.pump(js)
		}
	})
}
