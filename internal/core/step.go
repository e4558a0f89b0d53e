package core

import (
	"slices"

	"switchflow/internal/device"
	"switchflow/internal/executor"
	"switchflow/internal/obs"
	"switchflow/internal/workload"
)

// This file is the scheduler's one step engine. Every job runs on its
// virtual-node binding (internal/vnode, after VirtualFlow
// arXiv:2009.09523): one shard per vnode, each computing a share-sized
// slice of the step on its bound device under that device's grant
// (invariant 1 applies per device). A plain job is the degenerate binding
// — one implicit vnode covering the whole batch. A step opens when its
// input is staged and commits when the last shard finishes.
//
// The job shapes differ only in policy:
//
//   - Plain (one implicit vnode): the step consumes its input when the
//     shard launches under the grant, so a serving micro-batch forms at
//     grant time. A preempted job pauses its whole pipeline while the
//     shard drains, then migrates to the first fallback with room —
//     relocate (relocate.go) rebinds vnode 0 and the weights move off the
//     critical path — or stays and waits. Options.CheckpointPreemption
//     replaces the abort with a Gandiva-style checkpoint out to host
//     memory; a lost device restores the job from the host checkpoint on
//     a fallback; a transient fault restarts it with backoff; a drain
//     applies between launches. Options.DisableFreeCPUExecutors couples
//     its input stage to the GPU grant (pumpCoupled).
//   - Elastic (Config.VNodes): the step consumes its input as it opens,
//     and every shard computes a slice of that batch. Only the shard on
//     the contended GPU is preempted; it stays and waits for a re-grant
//     while its siblings keep computing. Faults heal from the surviving
//     weight replicas without a rollback (elastic.go).
//   - Gang (Config.Gang): grants are acquired in ascending GPU order and
//     the whole gang is preempted, resumed and committed as one unit
//     (gang.go).
//   - Shared-group members (group.go) are plain jobs whose step opens
//     only in the member's turn, on the group's cached batch; the commit
//     passes the turn on. A preempted member stays and resumes in its
//     turn. Drain and device loss move every member to one device.
//
// Every binding change — migration, drain, device-loss restore, resize,
// rebind, heal — is one relocate call: it seeds a replica on each newly
// bound device, and when the copies land frees every device the job's
// current binding no longer uses.

// shardState is the scheduler-side state of one virtual node.
type shardState struct {
	idx     int
	dev     device.ID
	holding bool
	waiting bool
	// preempting gates the shard between Suspend and its drain callback;
	// preemptEpoch is the job epoch it was suspended under, so a drain that
	// outlives a fault is recognised as stale.
	preempting   bool
	preemptEpoch int
	run          *executor.Run
	scratch      int64
	done         bool
	// Callbacks bound once in rebuildShards, so steps, grants and
	// preemptions allocate no closures: the device grant, the shard run's
	// onDone, the preemption drain and the grant release that follows it.
	grantFn, finishFn, drainedFn, releaseFn func()
}

// newJobState builds the scheduler state of an admitted job, with one
// shard per vnode of its binding.
func newJobState(m *Manager, job *workload.Job) *jobState {
	js := &jobState{m: m, job: job, weightsReady: true}
	js.inputDoneFn = func() {
		js.job.FinishInput()
		m.pump(js)
	}
	if job.Gang() {
		js.gangSweepFn = func() { m.gangDrainOne(js) }
		js.gangCommitFn = func() { m.commitGangStep(js) }
	}
	js.rebuildShards()
	return js
}

// current is the device the job's first vnode is bound to: a plain job's
// only device.
func (js *jobState) current() device.ID { return js.job.Binding().Node(0).Device }

// rebuildShards derives fresh shard states from the job's binding; the
// new binding starts between steps. Only call at epoch-safe points: any
// in-flight run must be discarded first. It is the one place the shards'
// callbacks are bound, and a gang's acquisition order and all-reduce
// price are derived.
func (js *jobState) rebuildShards() {
	m := js.m
	b := js.job.Binding()
	js.shards = make([]*shardState, b.Len())
	for i := range js.shards {
		sh := &shardState{idx: i, dev: b.Node(i).Device}
		sh.grantFn = func() { m.shardGranted(js, sh) }
		sh.finishFn = func() { m.finishShard(js, sh) }
		sh.drainedFn = func() { m.shardDrained(js, sh) }
		sh.releaseFn = func() { m.releasePreempted(js, sh) }
		js.shards[i] = sh
	}
	if js.job.Gang() {
		// Gang replicas bind distinct GPUs (validated at admission), so the
		// ascending-GPU acquisition order is total.
		js.gangOrder = slices.Clone(js.shards)
		slices.SortFunc(js.gangOrder, func(a, b *shardState) int { return a.dev.Index - b.dev.Index })
		js.syncCost = js.job.SyncCost()
	}
	js.stepOpen = false
}

// pumpShards advances a job's compute side: apply pending binding ops
// between steps, open the next step when an input is ready (and a
// batching serving job's micro-batch is full or due), and drive every
// shard toward its device grant.
func (m *Manager) pumpShards(js *jobState) {
	if (!js.weightsReady && !js.checkpointed) || js.restoring {
		return
	}
	if !js.stepOpen {
		if m.applyPendingOps(js) {
			// Ops re-split the binding; every op path re-pumps when its
			// transfers land (or pumped inline), so this pass is done.
			m.pump(js)
			return
		}
		if !js.job.InputAvailable() || js.job.HoldForBatch() {
			// A filling micro-batch is re-pumped by its batch-wait timer
			// (or the next ready input) by the deadline.
			return
		}
		m.openStep(js)
	}
	if js.job.Gang() {
		m.pumpGangShards(js)
		return
	}
	for _, sh := range js.shards {
		m.pumpShard(js, sh)
	}
}

// openStep starts a step with every shard still to run; an elastic step
// consumes its input here, a plain one in startShard.
func (m *Manager) openStep(js *jobState) {
	js.stepOpen = true
	for _, sh := range js.shards {
		sh.done = false
	}
	if js.job.Elastic() {
		js.job.BeginCompute()
	}
}

// pumpShard drives one shard: CPU shards launch freely; GPU shards
// acquire their device's arbiter first, and a grant launches the shard
// directly.
func (m *Manager) pumpShard(js *jobState, sh *shardState) {
	if sh.done || sh.preempting {
		return
	}
	if sh.run != nil && !sh.run.Suspended() {
		return // executing
	}
	if sh.dev.Kind != device.KindGPU || sh.holding {
		m.startShard(js, sh)
		return
	}
	m.acquire(js, sh, sh.grantFn)
}

// shardGranted is every shard's grant callback: a gang shard re-pumps the
// gang, which takes its next grant or launches every replica; any other
// shard launches directly.
func (m *Manager) shardGranted(js *jobState, sh *shardState) {
	if js.job.Gang() {
		m.pump(js)
		return
	}
	m.startShard(js, sh)
}

// startShard launches (or resumes) the shard's share-sized compute run on
// its bound device; a checkpointed-out job restores its state first. The
// step consumes its input when its first shard launches.
func (m *Manager) startShard(js *jobState, sh *shardState) {
	if js.checkpointed {
		m.restoreCheckpoint(js, sh)
		return
	}
	if sh.run != nil && sh.run.Suspended() {
		m.resumeShard(js, sh)
		return
	}
	v, err := js.job.VNodeVersion(sh.idx)
	if err != nil {
		m.shardFailed(js, sh, err, "no graph version")
		return
	}
	if !m.allocScratch(js, sh) {
		return
	}
	if !js.job.ComputeRunning {
		js.job.BeginCompute()
	}
	cfg := executor.Config{Pool: m.poolFor(js), Stream: js.job.Stream(sh.dev)}
	run, err := js.job.StartExec(v.Compute, cfg, sh.finishFn)
	if err != nil {
		js.job.FreeScratchBytes(sh.dev, sh.scratch)
		sh.scratch = 0
		m.shardFailed(js, sh, err, "compute start failed")
		return
	}
	sh.run = run
}

// resumeShard re-enters a suspended shard run: the scratch discarded at
// preemption is reallocated and the run continues from its retained
// progress, so no work is lost (§3.3).
func (m *Manager) resumeShard(js *jobState, sh *shardState) {
	if !m.allocScratch(js, sh) {
		return
	}
	m.bus.Emit(obs.Event{
		Kind:   obs.KindResume,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: sh.dev.String(),
	})
	sh.run.Resume()
}

// allocScratch reserves the shard's step scratch on its device. Under the
// exclusivity invariant it only fails when one job exceeds the device by
// itself, which is fatal for the job.
func (m *Manager) allocScratch(js *jobState, sh *shardState) bool {
	n := js.job.VNodeScratchBytes(sh.idx)
	if err := js.job.AllocScratchBytes(sh.dev, n); err != nil {
		m.shardFailed(js, sh, err, "out of memory")
		return false
	}
	sh.scratch = n
	return true
}

// shardFailed kills the job over an unrecoverable shard error and hands
// the shard's grant back; the pump gives a group member's turn on.
func (m *Manager) shardFailed(js *jobState, sh *shardState, err error, why string) {
	m.loseJob(js, sh.dev, err, why)
	m.releaseShard(sh)
	m.pump(js)
}

// finishShard retires one shard; the last one home completes the step.
// A requested Gandiva checkpoint streams out before the grant is
// released; otherwise the grant goes back and queued binding ops apply.
// It is the shard run's onDone, so it drops the handle first: a finished
// run is recycled once onDone returns.
func (m *Manager) finishShard(js *jobState, sh *shardState) {
	sh.run = nil
	js.job.FreeScratchBytes(sh.dev, sh.scratch)
	sh.scratch = 0
	sh.done = true
	for _, s := range js.shards {
		if !s.done {
			m.releaseShard(sh)
			return
		}
	}
	if js.job.Gang() && len(js.shards) > 1 {
		// Data-parallel replicas meet at the step barrier: the step commits
		// only after the priced all-reduce (gang.go).
		m.releaseShard(sh)
		m.finishGangStep(js)
		return
	}
	m.commitStep(js)
	if js.checkpointRequested && sh.dev.Kind == device.KindGPU {
		m.checkpointOut(js, sh)
		return
	}
	m.releaseShard(sh)
	if !js.job.Elastic() {
		// A plain job's binding ops land before its next input is pumped,
		// so that input already streams to the new device.
		m.applyPendingOps(js)
	}
	m.pump(js)
}

// commitStep completes the open step; a shared-group member's commit
// passes the group's turn on.
func (m *Manager) commitStep(js *jobState) {
	js.job.FinishCompute()
	js.stepOpen = false
	if js.group != nil {
		js.group.advance()
	}
}

func (m *Manager) releaseShard(sh *shardState) {
	if !sh.holding {
		return
	}
	sh.holding = false
	m.release(sh.dev.Index)
}

// checkpointOut is the Gandiva suspend path (§6): the preempted job's
// state streams to host memory while it still holds the GPU, and only
// then is the grant released.
func (m *Manager) checkpointOut(js *jobState, sh *shardState) {
	js.checkpointRequested = false
	epoch := js.epoch
	d2h := m.machine.DeviceToHost(sh.dev.Index)
	d2h.Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), func() {
		js.job.FreeWeights(sh.dev)
		if js.epoch != epoch {
			return // a fault already relocated the job mid-transfer
		}
		m.bus.Emit(obs.Event{
			Kind:   obs.KindCheckpoint,
			Ctx:    js.job.Ctx,
			Job:    js.job.Cfg.Name,
			Device: sh.dev.String(),
			Name:   "preempt",
		})
		js.checkpointed = true
		js.weightsReady = false
		m.releaseShard(sh)
		m.pump(js)
	})
}

// restoreCheckpoint streams a checkpointed job's state back onto the
// device its shard just re-acquired, then launches the step. The restore
// occupies the grant — Gandiva's resume cost.
func (m *Manager) restoreCheckpoint(js *jobState, sh *shardState) {
	if js.restoring {
		return
	}
	js.restoring = true
	if err := js.job.AllocWeights(sh.dev); err != nil {
		js.restoring = false
		m.shardFailed(js, sh, err, "restore allocation failed")
		return
	}
	epoch := js.epoch
	h2d := m.machine.HostToDevice(sh.dev.Index)
	h2d.Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), func() {
		if js.epoch != epoch {
			return // a fault already relocated the job mid-transfer
		}
		m.bus.Emit(obs.Event{
			Kind:   obs.KindRestore,
			Ctx:    js.job.Ctx,
			Job:    js.job.Cfg.Name,
			Device: sh.dev.String(),
			Name:   "preempt",
		})
		js.restoring = false
		js.checkpointed = false
		js.weightsReady = true
		m.pump(js)
	})
}

// discardStep tears down a job's in-flight step: every shard run is
// discarded, scratch freed, grants released (except on lost, whose
// arbiter the fault handler reset wholesale) and queued grant requests
// purged, then the consumed input returns to the ready pool.
func (m *Manager) discardStep(js *jobState, lost device.ID) {
	for _, sh := range js.shards {
		if sh.run != nil {
			sh.run.Abort()
			sh.run = nil
		}
		if sh.scratch > 0 {
			js.job.FreeScratchBytes(sh.dev, sh.scratch)
			sh.scratch = 0
		}
		if sh.holding && sh.dev != lost {
			m.release(sh.dev.Index)
		}
		sh.holding, sh.waiting, sh.preempting, sh.done = false, false, false, false
	}
	m.purgeRequests(js)
	m.abandonStep(js)
	js.preempting = false
	// A torn-down step also tears down any in-flight gang suspension; the
	// epoch bump at the call site already invalidates its callbacks.
	js.gangPreempting, js.gangSuspended = false, false
}

// abandonStep closes the open step without committing it; a consumed
// input goes back to the ready pool for the next one.
func (m *Manager) abandonStep(js *jobState) {
	if js.job.ComputeRunning {
		js.job.AbandonCompute()
	}
	js.stepOpen = false
}

// purgeRequests removes a job's queued grant requests from every arbiter
// — a grant must never fire into a job that is restarting, moving or
// being displaced — and clears its shards' waiting flags.
func (m *Manager) purgeRequests(js *jobState) {
	for _, arb := range m.arbs {
		arb.queue = slices.DeleteFunc(arb.queue, func(req grantReq) bool { return req.js == js })
	}
	for _, sh := range js.shards {
		sh.waiting = false
	}
}

// queueOp schedules a binding mutation for the job's next epoch-safe
// point. A plain job between launches is already at one and applies it
// immediately; otherwise the op waits for the step to end.
func (m *Manager) queueOp(js *jobState, op func()) {
	if !js.job.Elastic() && !js.job.ComputeRunning && !js.preempting && !js.restoring {
		op()
		return
	}
	js.pendingOps = append(js.pendingOps, op)
	if js.job.Elastic() {
		m.pump(js)
	}
}

// applyPendingOps runs queued binding ops while the job sits at an
// epoch-safe point; it reports whether any op ran.
func (m *Manager) applyPendingOps(js *jobState) bool {
	ran := false
	for len(js.pendingOps) > 0 && !js.stepOpen && !js.stopped && !js.job.Crashed() {
		op := js.pendingOps[0]
		js.pendingOps = js.pendingOps[1:]
		op()
		ran = true
	}
	return ran
}
