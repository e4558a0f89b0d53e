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

	eng     *sim.Engine
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

// Size returns the number of worker threads.
func (p *Pool) Size() int { return len(p.workers) }

// Submit enqueues a copy of *t, so callers may reuse or change theirs.
// preferred selects the worker whose local queue should hold the task (the
// parent op's worker for inexpensive successors, §2.1); pass -1 for no
// affinity. front pushes to the head of the local queue (inexpensive ops
// ride immediately after their parent).
func (p *Pool) Submit(t *Task, preferred int, front bool) {
	task := *t
	if task.Duration < 0 {
		task.Duration = 0
	}
	w := p.pickWorker(preferred)
	if !w.busy {
		p.start(w, task)
		return
	}
	// The preferred worker is busy; an idle worker steals the task right
	// away (work stealing keeps queues short).
	if idle := p.idleWorker(); idle != nil {
		p.start(idle, task)
		return
	}
	w.queue = append(w.queue, task)
	p.queued++
	if front {
		copy(w.queue[1:], w.queue)
		w.queue[0] = task
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

func (p *Pool) start(w *worker, t Task) {
	w.busy = true
	w.task = t
	p.busy++
	p.eng.After(t.Duration, w.finish)
}

// finish completes w's running task, still "on" the worker, then lets w
// pick its next one.
func (p *Pool) finish(w *worker) {
	t := w.task
	w.task = Task{}
	if t.Fire != nil {
		t.Fire(t.Arg)
	} else if t.Run != nil {
		t.Run()
	}
	w.busy = false
	p.busy--
	p.next(w)
}

// next lets worker w pick its next task: own queue first, then steal from
// the longest peer queue, else go idle. Queues are popped by copying down,
// not reslicing, so they keep their capacity.
func (p *Pool) next(w *worker) {
	if len(w.queue) > 0 {
		t := w.queue[0]
		left := copy(w.queue, w.queue[1:])
		w.queue[left] = Task{}
		w.queue = w.queue[:left]
		p.queued--
		p.start(w, t)
		return
	}
	if p.queued == 0 {
		return
	}
	victim := p.longestQueue()
	last := len(victim.queue) - 1
	t := victim.queue[last] // steal from the tail
	victim.queue[last] = Task{}
	victim.queue = victim.queue[:last]
	p.queued--
	p.start(w, t)
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
