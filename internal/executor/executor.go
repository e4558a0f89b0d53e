// Package executor runs one subgraph on one device, reproducing TF's
// executor mechanics (§2.1): nodes become ready as their in-subgraph
// dependencies complete; worker threads from a shared pool process CPU ops
// (occupying the thread) and launch GPU ops (occupying the thread only for
// the launch, with the kernel executing asynchronously on the device's
// stream); expensive successors are dispatched to any worker while
// inexpensive ones ride their parent's local queue.
package executor

import (
	"fmt"
	"time"

	"switchflow/internal/cost"
	"switchflow/internal/device"
	"switchflow/internal/graph"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
)

// Config wires a Run to its resources.
type Config struct {
	// Pool supplies inter-op worker threads (CPU ops, kernel launches).
	Pool *threadpool.Pool
	// DataPool, when set, runs Preprocess nodes — tf.data's parallel data
	// workers live in their own pool, separate from the executor's
	// inter-op threads, so preprocessing cannot starve kernel launches.
	// Nil falls back to Pool.
	DataPool *threadpool.Pool
	// CPUClass scales CPU op durations.
	CPUClass device.CPUClass
	// Stream is the GPU compute stream; nil for CPU subgraphs. The
	// stream's GPU class also drives kernel durations.
	Stream *device.Stream
	// Machine provides copy engines for Send nodes.
	Machine *device.Machine
	// Ctx tags kernels for traces (one id per job).
	Ctx int
	// Bus, when set, receives OpSched and Launch events on the
	// observability spine. Emission is gated on active subscribers, so an
	// unobserved run pays only a nil-check on this hot path.
	Bus *obs.Bus
	// Eager charges every GPU op a framework dispatch overhead — dynamic
	// graph execution interprets user code per op instead of replaying a
	// pre-optimized plan (§1).
	Eager bool
}

// eagerDispatchOverhead is the per-op cost of dynamic-graph dispatch
// (Python-level op construction and bookkeeping).
const eagerDispatchOverhead = 75 * time.Microsecond

// Run is one activation of a subgraph (one iteration's worth of its
// nodes). Create with Start.
//
// A Run can be suspended (queued work aborted, in-flight work drained,
// progress kept) and later resumed — the paper's preemption semantics:
// "the new session is populated with the tasks of the aborted session run
// so that no work is lost" (§3.3). Abort is a terminal suspend.
//
// Lifecycle: the caller of Start owns the handle until onDone returns.
// A Run that finished — every node completed, so no task, kernel or
// transfer of it is in flight — then goes back on its subgraph's free
// list, and a later Start of that subgraph reuses it, so owners must drop
// the handle in (or before) onDone. Aborted Runs are never reused: their
// in-flight kernels still complete into them. The epoch only grows, across
// lives too, so a task or transfer issued before a suspension or in an
// earlier life is recognised as stale and dropped.
type Run struct {
	sub  *graph.Subgraph
	plan *graph.ExecPlan
	cfg  Config
	eng  *sim.Engine
	// pending counts unmet intra-subgraph dependencies per node ID; -1
	// marks nodes of other subgraphs (dependencies across subgraphs are
	// satisfied by stage sequencing). doneSet is indexed the same way.
	// Slices, not maps: the dependency bookkeeping is the executor's
	// hottest path.
	pending    []int32
	doneSet    []bool
	shardsLeft map[int]int // lazily allocated; only sharded CPU ops use it
	done       int
	total      int
	suspended  bool
	aborted    bool
	epoch      uint32
	onDone     func()
	// kern is the subgraph's cost table on this run's GPU class (the zero
	// class on CPU subgraphs), indexed by Node.ID.
	kern *graph.KernelTable
	// nodes is the graph's node slice, indexed by Node.ID, and poolSize
	// is cfg.Pool's worker count; Start caches both for the callbacks.
	nodes    []*graph.Node
	poolSize int
	// Worker tasks, kernels and Send transfers carry a node ID (tasks and
	// transfers also the epoch) to callbacks bound once per Run, so
	// dispatch allocates no closures.
	runTaskFn    func(arg uint64)
	kernelDoneFn func(tag int32)
	sendDoneFn   func(arg uint64)
}

// Start begins executing sub and returns its Run handle. onDone fires when
// every node has completed (never after Abort); the handle is invalid once
// it returns.
func Start(eng *sim.Engine, sub *graph.Subgraph, cfg Config, onDone func()) (*Run, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("executor: %s: nil pool", sub.Name())
	}
	if sub.Device.Kind == device.KindGPU && cfg.Stream == nil {
		return nil, fmt.Errorf("executor: %s: GPU subgraph needs a stream", sub.Name())
	}
	var class device.GPUClass
	if cfg.Stream != nil {
		class = cfg.Stream.GPU().Class
	}
	r := newRun(sub)
	r.cfg, r.eng, r.onDone = cfg, eng, onDone
	r.kern = cost.Table(sub, class)
	r.nodes, r.poolSize = sub.Graph.Nodes(), cfg.Pool.Size()
	copy(r.pending, r.plan.Deps)
	if r.total == 0 {
		eng.After(0, r.finish)
		return r, nil
	}
	// Initial dispatch: the ready queue is drained breadth-first onto
	// separate local queues (§2.1).
	for _, n := range r.plan.Ready {
		r.dispatch(n, -1, false)
	}
	return r, nil
}

// newRun pops a finished Run of sub off its plan's free list, with no
// progress, or builds a new one.
func newRun(sub *graph.Subgraph) *Run {
	plan := sub.Plan()
	if n := len(plan.Spare); n > 0 {
		r := plan.Spare[n-1].(*Run)
		plan.Spare[n-1] = nil
		plan.Spare = plan.Spare[:n-1]
		r.done = 0
		clear(r.doneSet)
		return r
	}
	r := &Run{
		sub:     sub,
		plan:    plan,
		pending: make([]int32, plan.NumNodes),
		doneSet: make([]bool, plan.NumNodes),
		total:   len(sub.Nodes),
	}
	r.runTaskFn = r.runTask
	r.kernelDoneFn = r.kernelDone
	r.sendDoneFn = r.sendDone
	return r
}

// Done reports whether every node completed.
func (r *Run) Done() bool { return r.done == r.total && !r.aborted }

// Suspended reports whether the run is paused and resumable.
func (r *Run) Suspended() bool { return r.suspended && !r.aborted }

// Suspend pauses the run: queued worker tasks are removed from the pool
// and the stream's backlog is discarded; the in-flight kernel (if any)
// drains and its completion is kept (§3.3: dispatched kernels finish).
// onDrained fires once in-flight work ends — the preemption critical
// path. Resume continues from the retained progress.
func (r *Run) Suspend(onDrained func()) {
	if r.aborted || r.suspended {
		if onDrained != nil {
			onDrained()
		}
		return
	}
	r.suspended = true
	r.epoch++
	r.cfg.Pool.Abort(r)
	if r.cfg.DataPool != nil {
		r.cfg.DataPool.Abort(r)
	}
	if r.cfg.Stream != nil {
		r.cfg.Stream.Abort()
		if onDrained != nil {
			r.cfg.Stream.Drain(onDrained)
		}
		return
	}
	if onDrained != nil {
		onDrained()
	}
}

// Resume re-dispatches every ready-but-incomplete node of a suspended run.
// Callers must wait for Suspend's drain callback first.
func (r *Run) Resume() {
	if r.aborted || !r.suspended {
		return
	}
	r.suspended = false
	if r.done == r.total {
		r.finish()
		return
	}
	for _, n := range r.sub.Nodes {
		if !r.doneSet[n.ID] && r.pending[n.ID] == 0 {
			r.dispatch(n, -1, false)
		}
	}
}

// Abort cancels the run terminally; it can never resume and onDone never
// fires. A run that is not suspended loses its queued pool and stream
// work, as in Suspend; an in-flight kernel still runs to its end.
func (r *Run) Abort() {
	if r.aborted {
		return
	}
	r.aborted = true
	if r.suspended {
		return
	}
	r.suspended = true
	r.cfg.Pool.Abort(r)
	if r.cfg.DataPool != nil {
		r.cfg.DataPool.Abort(r)
	}
	if r.cfg.Stream != nil {
		r.cfg.Stream.Abort()
	}
}

// dispatch hands node n to a worker. preferred/front implement the
// expensive/inexpensive local-queue policy. The epoch packed into the
// task's Arg invalidates tasks from before a suspension, so a node cannot
// be processed twice when a suspend races with a worker mid-task.
func (r *Run) dispatch(n *graph.Node, preferred int, front bool) {
	duration := r.workerTime(n)
	pool := r.cfg.Pool
	if n.Op == graph.OpPreprocess && r.cfg.DataPool != nil {
		pool = r.cfg.DataPool
	}
	if r.cfg.Bus.Wants(obs.KindOpSched) {
		from := "any"
		if preferred >= 0 {
			from = "local"
		}
		r.cfg.Bus.Emit(obs.Event{
			Kind:   obs.KindOpSched,
			Ctx:    r.cfg.Ctx,
			Device: r.sub.Device.String(),
			From:   from,
			Name:   n.Name,
			Dur:    duration,
		})
	}
	if r.sub.Device.Kind == device.KindCPU {
		if shards := intraOpShards(n, duration, pool.Size()); shards > 1 {
			r.dispatchSharded(n, pool, duration, shards)
			return
		}
	}
	pool.Submit(&threadpool.Task{
		Name:     n.Name,
		Owner:    r,
		Duration: duration,
		Fire:     r.runTaskFn,
		Arg:      r.arg(n),
	}, preferred, front)
}

// arg packs the current epoch (high half) and n's ID (low half) for a
// task or transfer callback.
func (r *Run) arg(n *graph.Node) uint64 { return uint64(r.epoch)<<32 | uint64(uint32(n.ID)) }

// runTask is every dispatched task's callback; arg is from r.arg.
func (r *Run) runTask(arg uint64) {
	if uint32(arg>>32) == r.epoch {
		r.process(r.nodes[uint32(arg)])
	}
}

// kernelDone is every launched kernel's callback; tag is the node ID.
func (r *Run) kernelDone(tag int32) { r.complete(r.nodes[tag]) }

// dispatchSharded fans a heavy CPU op over several worker threads with
// MKL-style imperfect scaling; the node completes when every shard does.
func (r *Run) dispatchSharded(n *graph.Node, pool *threadpool.Pool, total time.Duration, shards int) {
	if r.shardsLeft == nil {
		r.shardsLeft = make(map[int]int)
	}
	r.shardsLeft[n.ID] = shards
	epoch := r.epoch
	per := sim.Nanos(float64(total) / (float64(shards) * mklScalingEfficiency))
	for i := 0; i < shards; i++ {
		pool.Submit(&threadpool.Task{
			Name:     n.Name + "/shard",
			Owner:    r,
			Duration: per,
			Run: func() {
				if epoch != r.epoch {
					return
				}
				r.shardsLeft[n.ID]--
				if r.shardsLeft[n.ID] == 0 {
					r.process(n)
				}
			},
		}, -1, false)
	}
}

// workerTime is how long node n occupies the worker thread itself.
func (r *Run) workerTime(n *graph.Node) time.Duration {
	if r.sub.Device.Kind == device.KindCPU {
		return cost.CPUDuration(n, r.cfg.CPUClass)
	}
	// GPU subgraph: the thread only pays launch overhead; ops without a
	// kernel (Recv, NoOp) still cost a moment of bookkeeping.
	var eager time.Duration
	if r.cfg.Eager {
		eager = eagerDispatchOverhead
	}
	if r.kern.Costs[n.ID].Work > 0 {
		return eager + r.kern.Class.LaunchOverhead
	}
	return eager + time.Microsecond
}

// intraOpShards is the MKL-style intra-op parallelism of a CPU compute
// op: heavy dense math fans out over several worker threads (at reduced
// per-thread efficiency), which is both why a migrated-to-CPU job runs at
// usable speed and why the paper keeps such jobs in the temporary pool —
// their shards would otherwise occupy many global workers (§3.3).
func intraOpShards(n *graph.Node, total time.Duration, poolSize int) int {
	if n.Op == graph.OpPreprocess || n.CPUTime > 0 {
		return 1 // data ops are sharded at graph-build time already
	}
	if total < 10*time.Millisecond {
		return 1
	}
	shards := 8
	if shards > poolSize {
		shards = poolSize
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// mklScalingEfficiency discounts intra-op parallel speedup.
const mklScalingEfficiency = 0.75

// process runs after node n's worker time elapsed: CPU ops are then
// complete; GPU ops enqueue their kernel; Send ops start their transfer.
func (r *Run) process(n *graph.Node) {
	if r.aborted || r.suspended {
		return
	}
	switch {
	case n.Op == graph.OpSend:
		r.startSend(n)
	case r.sub.Device.Kind == device.KindGPU:
		k := &r.kern.Costs[n.ID]
		if k.Work == 0 {
			r.complete(n)
			return
		}
		if r.cfg.Bus.Wants(obs.KindLaunch) {
			r.cfg.Bus.Emit(obs.Event{
				Kind:   obs.KindLaunch,
				Ctx:    r.cfg.Ctx,
				Device: r.sub.Device.String(),
				Name:   n.Name,
				Dur:    k.Work,
			})
		}
		r.cfg.Stream.Enqueue(device.Kernel{
			Name:      n.Name,
			Work:      k.Work,
			Occupancy: k.Occupancy,
			Ctx:       r.cfg.Ctx,
			Done:      r.kernelDoneFn,
			Tag:       int32(n.ID),
		})
	default:
		r.complete(n)
	}
}

// startSend moves n's tensor over the copy path toward its Recv peer.
func (r *Run) startSend(n *graph.Node) {
	if r.cfg.Machine == nil || len(n.Outputs()) == 0 {
		r.complete(n)
		return
	}
	dst := n.Outputs()[0].Device
	engine, err := r.cfg.Machine.CopyPath(n.Device, dst)
	if err != nil {
		r.complete(n)
		return
	}
	engine.TransferTagged(n.OutputBytes, r.sendDoneFn, r.arg(n))
}

// sendDone is every Send transfer's callback; arg is from r.arg.
func (r *Run) sendDone(arg uint64) {
	if uint32(arg>>32) == r.epoch && !r.aborted && !r.suspended {
		r.complete(r.nodes[uint32(arg)])
	}
}

// complete marks n done and dispatches newly ready successors. While
// suspended, progress is recorded (an in-flight kernel finishing during
// the drain) but no new work is dispatched.
func (r *Run) complete(n *graph.Node) {
	if r.aborted || r.doneSet[n.ID] {
		return
	}
	r.doneSet[n.ID] = true
	r.done++
	for _, succ := range n.Outputs() {
		deps := r.pending[succ.ID]
		if deps < 0 {
			continue // successor lives in another subgraph
		}
		r.pending[succ.ID] = deps - 1
		if deps-1 > 0 || r.suspended {
			continue
		}
		if r.kern.Costs[succ.ID].Expensive {
			// Expensive nodes get their own local queue (any worker).
			r.dispatch(succ, -1, false)
		} else {
			// Inexpensive nodes ride the parent's queue.
			r.dispatch(succ, n.ID%r.poolSize, true)
		}
	}
	if r.done == r.total && !r.suspended {
		r.finish()
	}
}

// finish reports completion, then returns the finished Run to its
// subgraph's free list (see Run). A Run of no nodes is finished by an
// event Start scheduled, which a suspend and resume could double, so it
// is never reused.
func (r *Run) finish() {
	if r.aborted {
		return
	}
	if r.onDone != nil {
		r.onDone()
	}
	if r.total > 0 {
		r.onDone = nil
		r.plan.Spare = append(r.plan.Spare, r)
	}
}
