// Package cluster schedules DL jobs across a fleet of machines, each node
// running its own SwitchFlow session manager. It reproduces the
// deployment context of §1-2: "DNN training jobs are usually allocated
// dedicated GPUs while multiple inference jobs may be packed on a single
// GPU" — and lets SwitchFlow relax exactly that constraint, collocating
// inference with training safely because preemption bounds the tails.
//
// Execution model: every node owns its own sim.Engine, and the fleet
// advances through a shard.Group — machines run their event loops in
// parallel within bounded epochs, and all cross-machine interaction
// (placement of due submissions, queue retries after Stop) happens at
// epoch barriers where every engine sits at the same virtual instant.
// Per-node observation streams merge by (virtual time, node index, emit
// seq) via Record/Events, so the fleet's trace is byte-identical whether
// the epochs execute on one worker or many.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"switchflow/internal/core"
	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/sim/shard"
	"switchflow/internal/workload"
)

// DefaultEpoch is the barrier stride of the fleet: the latency of the
// modeled cluster control plane. Submissions timed at multiples of it
// place at exactly their submission instant, as a serial cluster would.
const DefaultEpoch = 5 * time.Millisecond

// Node is one machine of the fleet.
type Node struct {
	// Name labels the node.
	Name string

	eng     *sim.Engine
	machine *device.Machine
	mgr     *core.Manager
	perGPU  []gpuLoad
}

type gpuLoad struct {
	jobs     int
	training int
}

// Machine exposes the node's hardware (stats, tests).
func (n *Node) Machine() *device.Machine { return n.machine }

// Manager exposes the node's SwitchFlow manager.
func (n *Node) Manager() *core.Manager { return n.mgr }

// Engine exposes the node's private event engine. Schedule onto it only
// while the fleet is stopped at a barrier (between RunUntil calls, or
// inside a shard barrier hook).
func (n *Node) Engine() *sim.Engine { return n.eng }

// Placement names where a job landed.
type Placement struct {
	Node string
	GPU  int
	// GPUs lists every device of a gang placement in ring order (GPU
	// equals GPUs[0]); empty for single-device jobs.
	GPUs []int
}

// String implements fmt.Stringer.
func (p Placement) String() string {
	if len(p.GPUs) > 1 {
		s := fmt.Sprintf("%s/gpus:%d", p.Node, p.GPUs[0])
		for _, g := range p.GPUs[1:] {
			s += fmt.Sprintf("+%d", g)
		}
		return s
	}
	return fmt.Sprintf("%s/gpu:%d", p.Node, p.GPU)
}

// JobHandle tracks one submitted job.
type JobHandle struct {
	// Cfg echoes the submission.
	Cfg workload.Config
	// Job is nil until the job is placed.
	Job *workload.Job
	// Placed reports whether placement succeeded.
	Placed bool
	// Where it landed.
	Where Placement
	// SubmittedAt and PlacedAt bound the queueing delay.
	SubmittedAt time.Duration
	PlacedAt    time.Duration

	// stopped guards Stop against double-decrementing the node's load
	// counters; it also marks the handle dead for the router.
	stopped bool
	// node is where the job was placed (nil while queued).
	node *Node
	// deliver is deliverArrival bound once, so the router schedules an
	// arrival without a closure per request.
	deliver func()
}

// QueueDelay is the time the job waited for placement; ok is false while
// the job is still queued (an unplaced job has no delay to report — the
// old -1ns sentinel silently poisoned summed statistics).
func (h *JobHandle) QueueDelay() (time.Duration, bool) {
	if !h.Placed {
		return 0, false
	}
	return h.PlacedAt - h.SubmittedAt, true
}

// Stopped reports whether the job was halted via Cluster.Stop.
func (h *JobHandle) Stopped() bool { return h.stopped }

// live reports whether the handle can accept routed traffic.
func (h *JobHandle) live() bool {
	return h.Placed && !h.stopped && h.Job != nil && !h.Job.Crashed()
}

// deliverArrival lands one routed request on the replica at its arrival
// instant. It checks liveness again: a later barrier may retire the
// replica before the arrival instant (handle state only changes at
// barriers, with the engines parked, so the read is race-free).
func (h *JobHandle) deliverArrival() {
	if h.stopped || h.Job.Crashed() {
		h.Job.ShedOffer()
		return
	}
	h.Job.Offer()
}

// Cluster places jobs onto nodes. Each node runs on its own engine; the
// cluster advances them together via RunUntil/RunFor and takes every
// cross-node decision at shard epoch barriers.
type Cluster struct {
	policy    Collocate
	nodes     []*Node
	group     *shard.Group
	pending   []*JobHandle // submissions not yet due, in Submit order
	queue     []*JobHandle // due but unplaceable, retried at every barrier
	gangQueue []*JobHandle // due gangs whose full slot never fit, in Submit order
	placed    []*JobHandle
	recorders []*obs.Recorder
}

// New builds a cluster of count identical nodes, each with the given GPU
// classes, a Xeon host, and its own private engine, advancing in
// DefaultEpoch strides.
func New(policy Collocate, count int, gpus ...device.GPUClass) *Cluster {
	c := &Cluster{policy: policy}
	engines := make([]*sim.Engine, count)
	for i := 0; i < count; i++ {
		eng := sim.NewEngine()
		engines[i] = eng
		machine := device.NewMachine(eng, device.ClassXeonDual, gpus...)
		c.nodes = append(c.nodes, &Node{
			Name:    fmt.Sprintf("node%d", i),
			eng:     eng,
			machine: machine,
			mgr:     core.NewManager(eng, machine, core.Options{}),
			perGPU:  make([]gpuLoad, len(gpus)),
		})
	}
	c.group = shard.New(DefaultEpoch, engines...)
	c.group.AtBarrier(c.barrier)
	return c
}

// Nodes returns the fleet.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Now returns the fleet's barrier-aligned virtual time.
func (c *Cluster) Now() time.Duration { return c.group.Now() }

// RunUntil advances every node to t in epoch strides, the nodes in
// parallel within each epoch and placements at the barriers.
func (c *Cluster) RunUntil(t time.Duration) { c.group.RunUntil(t) }

// RunFor is RunUntil relative to the current time.
func (c *Cluster) RunFor(d time.Duration) { c.group.RunFor(d) }

// Epoch returns the fleet's barrier stride.
func (c *Cluster) Epoch() time.Duration { return c.group.Epoch() }

// AtBarrier registers fn to run at every fleet epoch barrier, after the
// cluster's own placement pass (hooks run in registration order). fn runs
// with every node engine stopped at the barrier instant and may schedule
// onto any node's engine at or after it — the front-end router and the
// autoscaler live here.
func (c *Cluster) AtBarrier(fn func(now time.Duration)) { c.group.AtBarrier(fn) }

// Record attaches a recorder for the given kinds (all kinds when none are
// given) to every node's bus. Call it before the fleet runs; Events
// returns the merged streams.
func (c *Cluster) Record(kinds ...obs.Kind) {
	for _, n := range c.nodes {
		r := obs.NewRecorder(0)
		n.machine.Bus().Subscribe(r, kinds...)
		c.recorders = append(c.recorders, r)
	}
}

// Events returns every recorded event across the fleet in the
// deterministic merged order: (virtual time, node index, emit seq).
func (c *Cluster) Events() []obs.Event {
	streams := make([][]obs.Event, len(c.recorders))
	for i, r := range c.recorders {
		streams[i] = r.Events()
	}
	return obs.Merge(streams...)
}

// Submit schedules cfg for placement at the given virtual time. A
// submission at or before the current time places immediately (the fleet
// is stopped at a barrier between runs); later ones place at the first
// epoch barrier at or after their submission time, in (time, submission
// order) sequence.
func (c *Cluster) Submit(at time.Duration, cfg workload.Config) *JobHandle {
	h := &JobHandle{Cfg: cfg, SubmittedAt: at}
	h.deliver = h.deliverArrival
	if at <= c.Now() {
		c.placeOrQueue(h)
		return h
	}
	c.pending = append(c.pending, h)
	return h
}

// placeOrQueue routes a due submission to its placement path: gangs go
// through the all-or-nothing gang packer and wait in the gang queue;
// everything else uses the node policy and the plain queue.
func (c *Cluster) placeOrQueue(h *JobHandle) {
	if h.Cfg.Gang {
		if !c.tryPlaceGang(h) {
			c.gangQueue = append(c.gangQueue, h)
		}
		return
	}
	if !c.tryPlace(h) {
		c.queue = append(c.queue, h)
	}
}

// barrier runs at every shard epoch boundary with all node engines
// aligned at now: it retries queued submissions (capacity may have freed
// since they were rejected), then releases due submissions, both in
// deterministic (time, submit-order) sequence. The queue holds jobs that
// became due at earlier barriers, so retrying it first preserves the
// global ordering.
func (c *Cluster) barrier(now time.Duration) {
	c.retryQueues()
	due := c.pending[:0:0]
	kept := c.pending[:0]
	for _, h := range c.pending {
		if h.SubmittedAt <= now {
			due = append(due, h)
		} else {
			kept = append(kept, h)
		}
	}
	clear(c.pending[len(kept):])
	c.pending = kept
	// Stable: submissions at the same instant place in Submit order.
	sort.SliceStable(due, func(i, j int) bool { return due[i].SubmittedAt < due[j].SubmittedAt })
	for _, h := range due {
		c.placeOrQueue(h)
	}
}

// Stop halts a placed job and retries queued placements (its memory is
// retained until the job object is dropped; this models job completion
// only approximately, so the retry mainly serves the load counters
// placement reads). A second Stop on the same handle is a no-op: without
// the guard it would double-decrement the per-GPU load counters, driving
// them negative and skewing Collocate forever after.
func (c *Cluster) Stop(h *JobHandle) {
	if !h.Placed || h.stopped {
		return
	}
	h.stopped = true
	n := h.node
	n.mgr.StopJob(h.Job)
	for _, gpu := range h.gangGPUs() {
		//swlint:allow counterflow one decrement per distinct gang GPU (replicas never share a device), mirroring tryPlaceGang's increments; the h.stopped guard blocks re-entry
		n.perGPU[gpu].jobs--
		if h.Cfg.Kind == workload.KindTraining {
			//swlint:allow counterflow same distinct-GPU loop as jobs above
			n.perGPU[gpu].training--
		}
	}
	// Drop the handle so Placed() reflects the jobs actually running.
	for i, p := range c.placed {
		if p == h {
			c.placed = append(c.placed[:i], c.placed[i+1:]...)
			break
		}
	}
	c.retryQueues()
}

// gangGPUs returns every GPU the placement occupies: the full gang set,
// or the single device of a plain job. Stop must decrement them all —
// gang load symmetry mirrors gang placement.
func (h *JobHandle) gangGPUs() []int {
	if len(h.Where.GPUs) > 0 {
		return h.Where.GPUs
	}
	return []int{h.Where.GPU}
}

// retryQueues re-attempts every queued job, then every queued gang, each
// in arrival order.
func (c *Cluster) retryQueues() {
	c.queue = c.retry(c.queue, (*Cluster).tryPlace)
	c.gangQueue = c.retry(c.gangQueue, (*Cluster).tryPlaceGang)
}

// retry tries place on each handle of q in order and returns the ones
// still waiting, compacted in place. It clears the vacated tail, so the
// backing array keeps no placed handle reachable.
func (c *Cluster) retry(q []*JobHandle, place func(*Cluster, *JobHandle) bool) []*JobHandle {
	kept := q[:0]
	for _, h := range q {
		if !place(c, h) {
			kept = append(kept, h)
		}
	}
	clear(q[len(kept):])
	return kept
}

// tryPlace asks the policy for a slot and admits the job there.
func (c *Cluster) tryPlace(h *JobHandle) bool {
	node, gpu, ok := c.policy.Place(c, h.Cfg)
	if !ok {
		return false
	}
	cfg := h.Cfg
	cfg.Device = device.GPUID(gpu)
	job, err := node.mgr.AddJob(cfg)
	if err != nil {
		// The policy believed it fits but admission disagreed (e.g. a
		// race with another placement this instant); keep queued.
		return false
	}
	h.Job = job
	h.node = node
	h.Placed = true
	h.Where = Placement{Node: node.Name, GPU: gpu}
	h.PlacedAt = c.Now()
	node.machine.Bus().Emit(obs.Event{
		Kind:   obs.KindPlace,
		Ctx:    job.Ctx,
		Job:    cfg.Name,
		Device: device.GPUID(gpu).String(),
		From:   node.Name,
	})
	node.perGPU[gpu].jobs++
	if cfg.Kind == workload.KindTraining {
		node.perGPU[gpu].training++
	}
	c.placed = append(c.placed, h)
	return true
}

// freeWeightBytes estimates the admissible persistent state on a GPU; a
// failed or draining GPU admits nothing.
func freeWeightBytes(n *Node, gpu int) int64 {
	g := n.machine.GPU(gpu)
	if g.Failed() || g.Draining() {
		return -1
	}
	return g.Mem.Available()
}

// weightsNeeded returns the job's persistent-state demand.
func weightsNeeded(cfg workload.Config) int64 {
	if cfg.Kind == workload.KindTraining {
		return cfg.Model.StatefulBytes()
	}
	return cfg.Model.ParamBytes()
}
