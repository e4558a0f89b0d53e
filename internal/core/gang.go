package core

// Gang scheduling semantics for synchronous data-parallel jobs: a gang's
// replicas are elastic shards with two extra invariants layered on top of
// the step engine (step.go).
//
//  1. All-or-nothing occupancy: no replica launches until every replica
//     holds its device grant. Grants are acquired one at a time in
//     ascending GPU index order — ordered acquisition means two gangs
//     contending for overlapping GPU sets can never deadlock in a
//     circular hold-and-wait; the gang that wins the lowest contended
//     GPU wins the set.
//
//  2. Gang-wide preemption: displacing any replica suspends the whole
//     gang and releases every grant. A lone suspended replica would
//     stall its siblings at the all-reduce barrier while they hold GPUs
//     the preempter's peers may need — the classic gang-scheduling
//     argument. The displaced gang re-enters through the same ordered
//     acquisition and resumes as one unit (KindGangResume), so no
//     straggler ever computes against a stale step.
//
// The step itself commits only after the replicas meet at the barrier
// and pay the topology-priced ring all-reduce (finishGangStep).

import (
	"slices"

	"switchflow/internal/device"
	"switchflow/internal/obs"
)

// pumpGangShards drives a gang job's step: ordered grant acquisition
// until the whole gang holds, then a simultaneous launch of every
// replica. Called from pumpShards once the step's input is staged.
func (m *Manager) pumpGangShards(js *jobState) {
	if js.gangPreempting {
		return
	}
	if !slices.ContainsFunc(js.shards, func(sh *shardState) bool { return !sh.done }) {
		return // replicas are at the barrier; finishGangStep owns the step
	}
	for _, sh := range js.gangOrder {
		if !sh.holding {
			// One request in flight at a time, re-pumped on its grant:
			// holding only lower-indexed GPUs while waiting is what makes
			// the ordered protocol deadlock-free.
			m.acquire(js, sh, sh.grantFn)
			return
		}
	}
	if js.gangSuspended {
		js.gangSuspended = false
		m.bus.Emit(obs.Event{
			Kind:   obs.KindGangResume,
			Ctx:    js.job.Ctx,
			Job:    js.job.Cfg.Name,
			Device: js.shards[0].dev.String(),
			Count:  len(js.shards),
		})
	}
	for _, sh := range js.shards {
		if sh.done || sh.preempting {
			continue
		}
		if sh.run != nil && !sh.run.Suspended() {
			continue // executing
		}
		m.startShard(js, sh)
	}
}

// finishGangStep meets the replicas at the step barrier: gradients ring
// all-reduce across the binding's devices at the fabric-priced cost, and
// only then does the step commit. Grants are already released — the
// collective rides the interconnect, not the SMs, so other jobs may use
// the GPUs during the sync window.
func (m *Manager) finishGangStep(js *jobState) {
	m.bus.Emit(obs.Event{
		Kind:   obs.KindAllReduce,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: js.shards[0].dev.String(),
		Dur:    js.syncCost,
		Count:  len(js.shards),
	})
	js.commitEpoch = js.epoch
	m.eng.After(js.syncCost, js.gangCommitFn)
}

// commitGangStep ends the all-reduce window (js.gangCommitFn).
func (m *Manager) commitGangStep(js *jobState) {
	if js.epoch != js.commitEpoch || js.stopped || js.job.Crashed() || !js.job.ComputeRunning {
		return // a fault or stop tore the step down mid-collective
	}
	m.commitStep(js)
	m.pump(js)
}

// preemptGang is the gang arm of preemption: the whole gang suspends and
// every grant releases, no matter which single GPU was contended.
func (m *Manager) preemptGang(gpu int, victim *jobState) {
	if victim.gangPreempting {
		return
	}
	victim.gangPreempting = true
	victim.gangSuspended = true
	m.Preemptions++
	m.emitPreempt(gpu, victim, "gang")
	m.bus.Emit(obs.Event{
		Kind:   obs.KindGangPreempt,
		Ctx:    victim.job.Ctx,
		Job:    victim.job.Cfg.Name,
		Device: device.GPUID(gpu).String(),
		Count:  len(victim.shards),
	})
	// The sweep below holds one reference, released by an event after it,
	// so a synchronous Suspend cannot re-pump before every replica has
	// been visited.
	victim.gangEpoch = victim.epoch
	victim.gangOutstanding = 1
	for _, sh := range victim.shards {
		if sh.run != nil && !sh.run.Suspended() && !sh.done {
			victim.gangOutstanding++
			sh.preempting = true
			sh.preemptEpoch = victim.epoch
			sh.run.Suspend(sh.drainedFn)
			continue
		}
		// Replica merely holding (or already done, or still queued): hand
		// the grant back immediately.
		m.releaseShard(sh)
	}
	// A grant must not fire into a gang being displaced; re-entry starts
	// the ordered acquisition from scratch.
	m.purgeRequests(victim)
	m.eng.After(0, victim.gangSweepFn)
}

// gangShardDrained retires one suspended replica of a gang preemption
// (from shardDrained, which already dropped stale drains).
func (m *Manager) gangShardDrained(victim *jobState, sh *shardState) {
	victim.job.FreeScratchBytes(sh.dev, sh.scratch)
	sh.scratch = 0
	sh.preempting = false
	m.releaseShard(sh)
	m.gangDrainOne(victim)
}

// gangDrainOne releases one reference of the gang preemption in progress;
// the last one lets the displaced gang re-enter acquisition.
func (m *Manager) gangDrainOne(victim *jobState) {
	victim.gangOutstanding--
	if victim.gangOutstanding > 0 || victim.epoch != victim.gangEpoch {
		return
	}
	victim.gangPreempting = false
	m.pump(victim)
}
