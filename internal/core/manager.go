// Package core implements the SwitchFlow scheduling framework (§3): a
// session manager that shares one global thread pool among all jobs,
// enforces the two scheduling invariants (no two GPU executors co-run on
// one GPU; everything else runs freely), preempts low-priority jobs with
// low latency by aborting queued nodes and letting in-flight kernels
// drain, migrates preempted jobs to replicated executors on other devices
// with asynchronous state transfer, and merges correlated jobs' input
// stages for multi-task learning.
package core

import (
	"fmt"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/executor"
	"switchflow/internal/metrics"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
	"switchflow/internal/workload"
)

// Options configure a Manager. The zero value selects the paper's design;
// the booleans exist for the ablation experiments.
type Options struct {
	// DisableGPUExclusive turns off scheduling invariant 1 (ablation):
	// GPU executors co-run and contend.
	DisableGPUExclusive bool
	// DisableFreeCPUExecutors turns off invariant 2 (ablation): a job's
	// input stage only runs while it holds the GPU, degenerating into
	// session-based time slicing.
	DisableFreeCPUExecutors bool
	// SyncStateTransfer makes migration state transfer block the
	// preempting job (ablation of §3.3's async design).
	SyncStateTransfer bool
	// CheckpointPreemption replaces SwitchFlow's abort-and-resume with
	// Gandiva-style suspend-resume (§6): the victim finishes its current
	// mini-batch, checkpoints its full state to host memory, and restores
	// it before running again — putting hundreds of MiB of transfer on
	// the preemption critical path.
	CheckpointPreemption bool
	// CheckpointEvery, when positive, snapshots every training job's
	// persistent state to host memory at this period (paying the D2H
	// transfer). Fault recovery rolls jobs back to the last snapshot;
	// without snapshots a recovered job restarts from iteration zero.
	CheckpointEvery time.Duration
}

// Manager is the SwitchFlow session manager.
type Manager struct {
	eng     *sim.Engine
	machine *device.Machine
	opts    Options
	global  *threadpool.Pool
	temp    *threadpool.Pool
	// arbs holds one arbiter per GPU, indexed by GPU index. It is a slice,
	// not a map, so every sweep over the arbiters (fault recovery, request
	// purging) runs in ascending device order — map iteration order is
	// randomized and would leak into grant sequencing.
	arbs   []*arbiter
	jobs   []*jobState
	groups []*Group
	ctxSeq int
	// stallUntil gates input-stage starts during an injected input stall.
	stallUntil time.Duration

	// PreemptionLatencies records request-to-grant times for preemptive
	// acquisitions (§5.2.3).
	PreemptionLatencies metrics.Latency
	// Preemptions counts preemption events.
	Preemptions int
	// Migrations counts device migrations.
	Migrations int
	// RecoveryLatencies records fault-to-serving-again times for recovered
	// jobs (device-lost migrations and transient restarts).
	RecoveryLatencies metrics.Latency

	// bus is the machine's observability spine; every scheduling decision
	// is emitted there. faults aggregates the fault/recovery counters from
	// those events instead of being hand-incremented per call site.
	bus    *obs.Bus
	faults metrics.FaultSink
}

type jobState struct {
	m            *Manager
	job          *workload.Job
	weightsReady bool
	// preempting pauses a plain job's whole pipeline while its shard
	// drains after a preemption (step.go).
	preempting bool
	stopped    bool
	acquiredAt time.Duration

	// Checkpoint-preemption state (Options.CheckpointPreemption).
	checkpointRequested bool
	checkpointed        bool
	restoring           bool

	// Fault-recovery state: restarting gates the pump during a restart
	// backoff window; epoch invalidates stale transfer callbacks after a
	// fault yanks the job off its device mid-flight.
	restarting bool
	epoch      int

	// Step state (step.go): one shard per virtual node of the current
	// binding (a plain job has one), whether a step is open, and binding
	// mutations queued for the next epoch-safe point.
	shards     []*shardState
	stepOpen   bool
	pendingOps []func()
	// inputDoneFn is the input stage's onDone, bound once.
	inputDoneFn func()

	// group is the shared-input group the job is a member of, if any.
	group *Group

	// Gang state (Config.Gang): gangPreempting gates the pump while the
	// whole gang is being suspended; gangSuspended marks a displaced gang
	// whose next full re-hold must emit KindGangResume before any replica
	// restarts.
	gangPreempting bool
	gangSuspended  bool
	// Derived from the binding in rebuildShards: the shards in ascending
	// GPU order (the acquisition order) and the step's all-reduce price.
	gangOrder []*shardState
	syncCost  time.Duration
	// A gang preemption waits for gangOutstanding drains plus one sweep
	// event (gangSweepFn), all under gangEpoch; the step barrier commits
	// through gangCommitFn under commitEpoch. Both callbacks are bound once.
	gangOutstanding           int
	gangEpoch, commitEpoch    int
	gangSweepFn, gangCommitFn func()
}

// plain reports whether the job is a plain one: one implicit vnode, no
// shared input group. A preempted plain job pauses its whole pipeline and
// may migrate (step.go).
func (js *jobState) plain() bool { return !js.job.Elastic() && js.group == nil }

// tempPoolThreads sizes the temporary pool (§3.3). A machine with no more
// cores than that gives it half of them instead.
const tempPoolThreads = 4

// NewManager creates a SwitchFlow manager over the machine. The
// temporary pool's threads come out of the core budget (§3.3), and the
// global pool gets one worker per remaining core.
func NewManager(eng *sim.Engine, machine *device.Machine, opts Options) *Manager {
	temp := tempPoolThreads
	if temp >= machine.CPU.Cores {
		temp = machine.CPU.Cores / 2
		if temp == 0 {
			temp = 1
		}
	}
	m := &Manager{
		eng:     eng,
		machine: machine,
		opts:    opts,
		global:  threadpool.New(eng, "global", machine.CPU.Cores-temp),
		temp:    threadpool.New(eng, "temporary", temp),
		arbs:    make([]*arbiter, len(machine.GPUs)),
		bus:     machine.Bus(),
	}
	for i := range m.arbs {
		m.arbs[i] = &arbiter{}
	}
	m.bus.Subscribe(&m.faults, metrics.FaultSinkKinds...)
	return m
}

// FaultCounters returns the fault-injection and recovery counters,
// aggregated from the observability spine.
func (m *Manager) FaultCounters() metrics.FaultCounters { return m.faults.Counters() }

// AddJob admits a job: its persistent state is allocated up front, one
// full weight replica per distinct bound device (a plain job has one), so
// admission fails (rather than the job crashing later) when the aggregate
// weights of collocated models exceed GPU memory — SwitchFlow's
// OOM-freedom contract (§3.4). A failed replica unwinds the others.
func (m *Manager) AddJob(cfg workload.Config) (*workload.Job, error) {
	m.ctxSeq++
	job, err := workload.NewJob(m.eng, m.machine, m.ctxSeq, cfg)
	if err != nil {
		return nil, err
	}
	devs := job.Binding().Devices()
	for i, dev := range devs {
		if err := job.AllocWeights(dev); err != nil {
			for _, d := range devs[:i] {
				job.FreeWeights(d)
			}
			return nil, fmt.Errorf("core: admit %s: replica on %v: %w", cfg.Name, dev, err)
		}
	}
	js := newJobState(m, job)
	if job.Elastic() {
		for i := 0; i < job.Binding().Len(); i++ {
			m.bus.Emit(obs.Event{
				Kind:   obs.KindBind,
				Ctx:    job.Ctx,
				Job:    cfg.Name,
				Device: job.Binding().Node(i).Device.String(),
				Count:  i,
			})
		}
	}
	m.jobs = append(m.jobs, js)
	job.StartArrivals(func() { m.pump(js) })
	m.eng.After(0, func() { m.pump(js) })
	if m.opts.CheckpointEvery > 0 && job.Training() {
		// Admission-time state is durable (weights initialize from host),
		// so the job starts with a valid iteration-zero checkpoint.
		job.RecordCheckpoint()
		m.scheduleCheckpoint(js)
	}
	return job, nil
}

// StopJob halts a job's loop after its in-flight stages complete.
func (m *Manager) StopJob(job *workload.Job) {
	if js := m.stateOf(job); js != nil {
		js.stopped = true
		job.StopArrivals()
	}
}

// JobDevice reports the device a job currently runs on (its first
// virtual node's).
func (m *Manager) JobDevice(job *workload.Job) device.ID {
	if js := m.stateOf(job); js != nil {
		return js.current()
	}
	return device.ID{}
}

// stateOf finds the scheduler state of a job.
func (m *Manager) stateOf(job *workload.Job) *jobState {
	for _, js := range m.jobs {
		if js.job == job {
			return js
		}
	}
	return nil
}

// pump advances a job's pipeline; it is called on every relevant state
// change and is idempotent.
func (m *Manager) pump(js *jobState) {
	if js.stopped || js.job.Crashed() || js.preempting || js.restarting {
		return
	}
	if js.group != nil {
		js.group.requeue()
		return
	}
	if m.opts.DisableFreeCPUExecutors && !js.job.Elastic() {
		m.pumpCoupled(js)
		return
	}
	m.pumpInput(js)
	m.pumpShards(js)
}

// pumpInput starts the CPU input stage whenever a prefetch slot is free —
// invariant 2: CPU executors run without restriction (§3.4).
func (m *Manager) pumpInput(js *jobState) {
	if m.eng.Now() < m.stallUntil {
		return // input pipelines stalled; handleInputStall re-pumps
	}
	dev := js.current()
	v, err := js.job.Version(dev)
	if err != nil {
		js.job.Crash(err)
		m.emitJobLost(js, dev, "no graph version")
		return
	}
	if v.Input == nil {
		// All-CPU placement: the compute subgraph includes preprocessing;
		// input slots fill instantly.
		if js.job.CanStartInput() {
			js.job.BeginInput()
			js.job.FinishInput()
		}
		return
	}
	pool := m.poolFor(js)
	for js.job.CanStartInput() {
		js.job.BeginInput()
		_, err := js.job.StartExec(v.Input, executor.Config{Pool: pool}, js.inputDoneFn)
		if err != nil {
			js.job.Crash(err)
			m.emitJobLost(js, dev, "input start failed")
			return
		}
	}
}

// pumpCoupled is the DisableFreeCPUExecutors input policy for plain jobs:
// input and compute run back-to-back under the GPU grant, like
// session-based time slicing.
func (m *Manager) pumpCoupled(js *jobState) {
	if !js.weightsReady {
		return
	}
	sh := js.shards[0]
	// A preempted session resumes through the normal shard path.
	if sh.run != nil && sh.run.Suspended() {
		m.pumpShards(js)
		return
	}
	if js.job.ComputeRunning || js.job.InputsInFlight > 0 || !js.job.HasWork() {
		return
	}
	if m.eng.Now() < m.stallUntil {
		return // coupled sessions start with input; stalled like pumpInput
	}
	if sh.dev.Kind != device.KindGPU {
		m.pumpInput(js)
		m.pumpShards(js)
		return
	}
	if sh.holding || sh.waiting {
		return
	}
	sh.waiting = true
	js.acquiredAt = m.eng.Now()
	m.acquire(sh.dev.Index, js, func() {
		sh.waiting = false
		sh.holding = true
		m.runCoupledSession(js, sh)
	})
}

func (m *Manager) runCoupledSession(js *jobState, sh *shardState) {
	v, err := js.job.Version(sh.dev)
	if err != nil {
		m.shardFailed(js, sh, err, "no graph version")
		return
	}
	if !js.job.CanStartInput() && !js.job.InputAvailable() {
		m.releaseShard(sh)
		return
	}
	// The session launches whichever shard the job has when its input
	// lands: a preemption may have moved it mid-input.
	launch := func() {
		m.openStep(js)
		m.startShard(js, js.shards[0])
	}
	if !js.job.CanStartInput() {
		launch()
		return
	}
	js.job.BeginInput()
	if v.Input == nil {
		js.job.FinishInput()
		launch()
		return
	}
	_, err = js.job.StartExec(v.Input, executor.Config{Pool: m.poolFor(js)}, func() {
		js.job.FinishInput()
		launch()
	})
	if err != nil {
		m.shardFailed(js, sh, err, "input start failed")
	}
}

// poolFor returns the inter-op pool a job's tasks go to: the temporary
// pool while the job runs on CPU (§3.3), the global pool otherwise.
func (m *Manager) poolFor(js *jobState) *threadpool.Pool {
	if js.current().Kind == device.KindCPU {
		return m.temp
	}
	return m.global
}
