package core

import (
	"slices"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/vnode"
)

// arbiter serializes GPU executors on one GPU (scheduling invariant 1) and
// implements priority preemption.
type arbiter struct {
	owner *jobState
	// queue holds the waiting requests by value, highest priority first
	// and FIFO within a priority class.
	queue []grantReq
}

type grantReq struct {
	js      *jobState
	onGrant func()
}

// acquire requests exclusive use of GPU gpu for js. onGrant fires when the
// device is granted. A higher-priority request preempts the current owner
// (§3.3); equal or lower priority waits FIFO within its priority class.
func (m *Manager) acquire(gpu int, js *jobState, onGrant func()) {
	arb := m.arbs[gpu]
	if arb.owner == nil {
		arb.owner = js
		m.recordGrant(js)
		onGrant()
		return
	}
	// The newest request goes after the last one of its priority or
	// higher, which keeps the queue in (priority, arrival) order.
	prio := js.job.Cfg.Priority
	i := len(arb.queue)
	for i > 0 && arb.queue[i-1].js.job.Cfg.Priority < prio {
		i--
	}
	arb.queue = slices.Insert(arb.queue, i, grantReq{js: js, onGrant: onGrant})
	if prio > arb.owner.job.Cfg.Priority {
		m.preempt(gpu, arb.owner)
	}
}

// release frees the GPU and grants the highest-priority waiter.
func (m *Manager) release(gpu int) {
	arb := m.arbs[gpu]
	arb.owner = nil
	m.grantNext(gpu)
}

func (m *Manager) grantNext(gpu int) {
	arb := m.arbs[gpu]
	if arb.owner != nil || len(arb.queue) == 0 {
		return
	}
	req := arb.queue[0]
	left := copy(arb.queue, arb.queue[1:])
	arb.queue[left] = grantReq{}
	arb.queue = arb.queue[:left]
	arb.owner = req.js
	m.recordGrant(req.js)
	req.onGrant()
}

func (m *Manager) recordGrant(js *jobState) {
	m.PreemptionLatencies.Add(m.eng.Now() - js.acquiredAt)
}

// emitPreempt publishes a preemption decision: the victim, the device it
// is displaced from, and the protocol used ("abort" for SwitchFlow's
// abort-and-resume, "checkpoint" for the Gandiva-style ablation).
func (m *Manager) emitPreempt(gpu int, victim *jobState, how string) {
	m.bus.Emit(obs.Event{
		Kind:   obs.KindPreempt,
		Ctx:    victim.job.Ctx,
		Job:    victim.job.Cfg.Name,
		Device: device.GPUID(gpu).String(),
		Name:   how,
	})
}

// preempt displaces the victim from GPU gpu according to its policy
// (step.go): a gang suspends whole, an elastic job or group member
// suspends just the shard on gpu, and a plain job aborts (or, under
// Options.CheckpointPreemption, checkpoints out after its step).
func (m *Manager) preempt(gpu int, victim *jobState) {
	switch {
	case victim.job.Gang():
		// A lone displaced replica would stall its siblings at the step
		// barrier while they sit on GPUs other jobs need (gang.go).
		m.preemptGang(gpu, victim)
	case victim.job.Elastic() || victim.group != nil:
		for _, sh := range victim.shards {
			if sh.holding && sh.dev.Kind == device.KindGPU && sh.dev.Index == gpu {
				m.preemptShard(gpu, victim, sh)
				return
			}
		}
	case m.opts.CheckpointPreemption:
		// Gandiva-style: no abort; the victim runs its mini-batch to
		// completion, then checkpoints out (§6). The grant follows the
		// checkpoint transfer.
		if !victim.checkpointRequested {
			victim.checkpointRequested = true
			m.Preemptions++
			m.emitPreempt(gpu, victim, "checkpoint")
		}
	default:
		m.preemptShard(gpu, victim, victim.shards[0])
	}
}

// preemptShard suspends one shard's compute: queued nodes are aborted
// from the thread pools and the stream's backlog is dropped; in-flight
// kernels drain (the only component on the new job's critical path,
// §5.2.3). A plain victim then migrates to a fallback device with room,
// abandoning the partial step but keeping its input; otherwise the victim
// stays and resumes its suspended run when it regains the GPU, so no work
// is lost (§3.3).
func (m *Manager) preemptShard(gpu int, victim *jobState, sh *shardState) {
	if sh.preempting || victim.preempting {
		return
	}
	sh.preempting = true
	sh.preemptEpoch = victim.epoch
	victim.preempting = victim.plain()
	m.Preemptions++
	m.emitPreempt(gpu, victim, "abort")
	if sh.run != nil {
		sh.run.Suspend(sh.drainedFn)
		return
	}
	// The shard was granted but has not started its executor (e.g. waiting
	// on input); nothing to drain.
	m.eng.After(0, sh.drainedFn)
}

// shardDrained is a shard's preemption drain callback (sh.drainedFn). The
// step's intermediate data is discarded either way, freeing the bulk of
// GPU memory for the preempter (§3.4); a resumed run reallocates it. A
// plain victim then migrates to a fallback with room, or stays; the grant
// goes back through releasePreempted.
func (m *Manager) shardDrained(victim *jobState, sh *shardState) {
	if victim.epoch != sh.preemptEpoch || !sh.preempting {
		// A fault relocated the victim while its kernels drained; the fault
		// handler already settled the arbiter. The preempting check also
		// retires a stale drain queued on the same stream as a newer one.
		return
	}
	if victim.job.Gang() {
		m.gangShardDrained(victim, sh)
		return
	}
	victim.job.FreeScratchBytes(sh.dev, sh.scratch)
	sh.scratch = 0
	if fallback, ok := m.pickFallback(victim); victim.plain() && ok {
		if sh.run != nil {
			sh.run.Abort()
			sh.run = nil
		}
		m.abandonStep(victim)
		if m.opts.SyncStateTransfer {
			// Ablation: the state transfer joins the preemption critical
			// path — the new job waits for it.
			m.migrate(victim, sh.dev, fallback, "preempt", sh.releaseFn)
			return
		}
		m.migrate(victim, sh.dev, fallback, "preempt", nil)
	}
	m.releasePreempted(victim, sh)
}

// releasePreempted hands a drained shard's grant to the preempter and
// re-pumps the victim (sh.releaseFn).
func (m *Manager) releasePreempted(victim *jobState, sh *shardState) {
	sh.holding, sh.preempting, victim.preempting = false, false, false
	m.release(sh.dev.Index)
	m.pump(victim)
}

// pickFallback chooses the first healthy configured fallback device with
// room for the victim's weights. ok is false when the victim should stay
// and wait.
func (m *Manager) pickFallback(victim *jobState) (device.ID, bool) {
	return m.fallbackWithRoom(victim, victim.current(), func(d device.ID) bool {
		if !m.machine.Healthy(d) {
			return false
		}
		if d.Kind != device.KindGPU {
			return true
		}
		// A fallback GPU must not currently host a higher-priority owner
		// the victim would immediately be preempted by.
		owner := m.arbs[d.Index].owner
		return owner == nil || owner.job.Cfg.Priority <= victim.job.Cfg.Priority
	})
}

// fallbackWithRoom returns the first configured fallback other than skip
// that has room for the job's weights and that usable accepts.
func (m *Manager) fallbackWithRoom(js *jobState, skip device.ID, usable func(device.ID) bool) (device.ID, bool) {
	for _, d := range js.job.Cfg.Fallbacks {
		if d != skip && m.hasRoom(js, d) && usable(d) {
			return d, true
		}
	}
	return device.ID{}, false
}

// hasRoom reports whether dev can take the job's weights; host memory is
// not modelled, so the CPU always can.
func (m *Manager) hasRoom(js *jobState, dev device.ID) bool {
	if dev.Kind != device.KindGPU {
		return true
	}
	gpu := m.machine.GPU(dev.Index)
	return gpu != nil && gpu.Mem.Available() >= js.job.WeightBytes()
}

// migrate moves a plain job to dev: its vnode is rebound there and the
// weights are copied off the preemption critical path; the source GPU
// retains the weight bytes until the transfer completes (§3.3, Table 1).
// reason tags the migrate event ("preempt", "drain"); onDone, when
// non-nil, fires at transfer completion (used by the synchronous-transfer
// ablation).
func (m *Manager) migrate(victim *jobState, from, to device.ID, reason string, onDone func()) {
	if _, err := victim.job.Version(to); err != nil {
		victim.job.Crash(err)
		m.emitJobLost(victim, to, "no graph version")
		return
	}
	if err := victim.job.AllocWeights(to); err != nil {
		// No room after all; stay and wait instead.
		if onDone != nil {
			onDone()
		}
		return
	}
	m.Migrations++
	m.bus.Emit(obs.Event{
		Kind:   obs.KindMigrate,
		Ctx:    victim.job.Ctx,
		Job:    victim.job.Cfg.Name,
		From:   from.String(),
		Device: to.String(),
		Name:   reason,
	})
	m.moveTo(victim, to)
	victim.weightsReady = false
	path, err := m.machine.CopyPath(from, to)
	if err != nil {
		victim.job.Crash(err)
		m.emitJobLost(victim, to, "no copy path")
		return
	}
	bytes := victim.job.WeightBytes()
	tensors := victim.job.Cfg.Model.WeightVars()
	epoch := victim.epoch
	path.Transfer(bytes, tensors, func() {
		// Safe even if a fault took `from` down mid-transfer: ForgetDevice
		// zeroed the accounting, so this free is a no-op there.
		victim.job.FreeWeights(from)
		if victim.epoch != epoch {
			// A fault relocated the job again; its handler owns the state
			// now, but the sync-ablation release must still run so the
			// source GPU's arbiter keeps granting.
			if onDone != nil {
				onDone()
			}
			return
		}
		victim.weightsReady = true
		m.pump(victim)
		if onDone != nil {
			onDone()
		}
	})
}

// moveTo rebinds a plain job's one implicit vnode to dev; its next step
// starts there on a fresh shard.
func (m *Manager) moveTo(js *jobState, dev device.ID) {
	js.job.SetBinding(vnode.Single(dev, js.job.Cfg.Batch))
	js.rebuildShards()
}
