// Package threadpool models TF's executor worker pools in virtual time:
// a fixed set of worker threads with per-worker local queues, work
// stealing, and owner-tagged abort. SwitchFlow shares one global pool
// among all sessions and keeps a temporary pool for jobs placed on the
// CPU (§3.2, §3.3). The paper balances the two pools' active thread
// counts with wakeup signals; here the split is static: core gives the
// temporary pool 4 workers (half the cores on a machine with 4 or fewer)
// and the global pool the remaining cores, and every worker of a pool
// may run.
package threadpool

import (
	"time"

	"switchflow/internal/sim"
)

// Task is one unit of worker-thread work (a CPU op, or the launch of a GPU
// kernel).
type Task struct {
	// Name labels the task for debugging.
	Name string
	// Owner tags the task for Abort; typically an executor run.
	Owner any
	// Duration is how long the task occupies a worker thread.
	Duration time.Duration
	// Run fires when the task's duration elapses, still "on" the worker.
	Run func()
	// Fire, when set, fires with Arg instead of Run. It is the
	// allocation-free form for callers that submit many tasks: one
	// callback bound once, with the per-task state in Arg.
	Fire func(arg uint64)
	Arg  uint64
}

// Pool is a set of virtual worker threads.
type Pool struct {
	// Name labels the pool ("global", "temporary").
	Name string

	eng *sim.Engine
	// lane, when set, carries the workers' finishes instead of the
	// engine's heap (see NewData).
	lane    *sim.Lane
	workers []*worker
	busy    int
	// queued is the number of tasks across all local queues, so a worker
	// finishing its task with nothing queued anywhere skips the steal scan.
	queued int
}

type worker struct {
	id    int
	queue []Task
	busy  bool
	// task is the running task; finish (bound once) completes it.
	task   Task
	finish func()
}

// New creates a pool of n workers.
func New(eng *sim.Engine, name string, n int) *Pool {
	p := &Pool{Name: name, eng: eng}
	for i := 0; i < n; i++ {
		w := &worker{id: i}
		w.finish = func() { p.finish(w) }
		p.workers = append(p.workers, w)
	}
	return p
}

// NewData creates a pool of n tf.data workers. Their finishes go through
// one sim.Lane sized to n, so the engine's heap holds one entry for the
// whole pool however many workers are busy; the firing order is the one
// New's pool gives. Executor pools stay on New: their finishes rarely
// overlap, and there a lane costs more than it saves.
func NewData(eng *sim.Engine, name string, n int) *Pool {
	p := New(eng, name, n)
	p.lane = eng.NewLane(n)
	return p
}

// Size returns the number of worker threads.
func (p *Pool) Size() int { return len(p.workers) }

// Submit enqueues a copy of *t, so callers may reuse or change theirs.
// preferred selects the worker whose local queue should hold the task (the
// parent op's worker for inexpensive successors, §2.1); pass -1 for no
// affinity. front pushes to the head of the local queue (inexpensive ops
// ride immediately after their parent). The task is copied once, straight
// into the worker that runs it or into a queue.
func (p *Pool) Submit(t *Task, preferred int, front bool) {
	w := p.pickWorker(preferred)
	if !w.busy {
		p.start(w, t)
		return
	}
	// The preferred worker is busy; an idle worker steals the task right
	// away (work stealing keeps queues short).
	if idle := p.idleWorker(); idle != nil {
		p.start(idle, t)
		return
	}
	p.queued++
	if front {
		w.queue = append(w.queue, Task{})
		copy(w.queue[1:], w.queue)
		w.queue[0] = *t
	} else {
		w.queue = append(w.queue, *t)
	}
}

// Abort removes every queued task tagged with owner and returns the count.
// Running tasks are unaffected (a thread cannot be yanked mid-op; the
// paper aborts queued nodes and lets running ones finish).
func (p *Pool) Abort(owner any) int {
	removed := 0
	for _, w := range p.workers {
		kept := w.queue[:0]
		for _, t := range w.queue {
			if t.Owner == owner {
				removed++
				continue
			}
			kept = append(kept, t)
		}
		clear(w.queue[len(kept):])
		w.queue = kept
	}
	p.queued -= removed
	return removed
}

func (p *Pool) pickWorker(preferred int) *worker {
	if preferred >= 0 && preferred < len(p.workers) {
		return p.workers[preferred]
	}
	// No affinity: prefer an idle worker, else the shortest queue.
	if w := p.idleWorker(); w != nil {
		return w
	}
	best := p.workers[0]
	for _, w := range p.workers[1:] {
		if len(w.queue) < len(best.queue) {
			best = w
		}
	}
	return best
}

func (p *Pool) idleWorker() *worker {
	for _, w := range p.workers {
		if !w.busy {
			return w
		}
	}
	return nil
}

// start copies *t into w's slot and runs it there. A negative duration
// runs as zero, as After and Lane.After take it.
func (p *Pool) start(w *worker, t *Task) {
	w.busy = true
	w.task = *t
	p.busy++
	if p.lane != nil {
		p.lane.After(t.Duration, w.finish)
	} else {
		p.eng.After(t.Duration, w.finish)
	}
}

// finish completes w's running task, still "on" the worker, then lets w
// pick its next one. The callback runs from w's slot, which nothing can
// overwrite while w is busy; afterwards the slot drops its references.
func (p *Pool) finish(w *worker) {
	t := &w.task
	if t.Fire != nil {
		t.Fire(t.Arg)
	} else if t.Run != nil {
		t.Run()
	}
	t.Name, t.Owner, t.Run, t.Fire = "", nil, nil, nil
	w.busy = false
	p.busy--
	p.next(w)
}

// next lets worker w pick its next task: own queue first, then steal from
// the longest peer queue, else go idle. The task starts from its queue
// slot; queues are then popped by copying down, not reslicing, so they
// keep their capacity.
func (p *Pool) next(w *worker) {
	if len(w.queue) > 0 {
		p.queued--
		p.start(w, &w.queue[0])
		left := copy(w.queue, w.queue[1:])
		w.queue[left] = Task{}
		w.queue = w.queue[:left]
		return
	}
	if p.queued == 0 {
		return
	}
	victim := p.longestQueue()
	last := len(victim.queue) - 1
	p.queued--
	p.start(w, &victim.queue[last]) // steal from the tail
	victim.queue[last] = Task{}
	victim.queue = victim.queue[:last]
}

// longestQueue returns the worker with the longest local queue, the lowest
// index on ties. Some queue must be non-empty.
func (p *Pool) longestQueue() *worker {
	var best *worker
	for _, w := range p.workers {
		if len(w.queue) == 0 {
			continue
		}
		if best == nil || len(w.queue) > len(best.queue) {
			best = w
		}
	}
	return best
}
