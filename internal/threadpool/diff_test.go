package threadpool

import (
	"testing"
	"time"

	"switchflow/internal/sim"
)

// refPool is the copy-based Pool the differential test checks Pool
// against: Submit copies the task into a local, start and the queue pops
// copy it again, and finish copies it out of the slot and zeroes the slot
// before the callback runs. Finishes are plain engine events.
type refPool struct {
	eng     *sim.Engine
	workers []*refWorker
	busy    int
	queued  int
}

type refWorker struct {
	queue  []Task
	busy   bool
	task   Task
	finish func()
}

func newRefPool(eng *sim.Engine, n int) *refPool {
	p := &refPool{eng: eng}
	for i := 0; i < n; i++ {
		w := &refWorker{}
		w.finish = func() { p.finish(w) }
		p.workers = append(p.workers, w)
	}
	return p
}

func (p *refPool) Submit(t *Task, preferred int, front bool) {
	task := *t
	if task.Duration < 0 {
		task.Duration = 0
	}
	w := p.pickWorker(preferred)
	if !w.busy {
		p.start(w, task)
		return
	}
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

func (p *refPool) Abort(owner any) int {
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

func (p *refPool) pickWorker(preferred int) *refWorker {
	if preferred >= 0 && preferred < len(p.workers) {
		return p.workers[preferred]
	}
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

func (p *refPool) idleWorker() *refWorker {
	for _, w := range p.workers {
		if !w.busy {
			return w
		}
	}
	return nil
}

func (p *refPool) start(w *refWorker, t Task) {
	w.busy = true
	w.task = t
	p.busy++
	p.eng.After(t.Duration, w.finish)
}

func (p *refPool) finish(w *refWorker) {
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

func (p *refPool) next(w *refWorker) {
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
	var victim *refWorker
	for _, v := range p.workers {
		if len(v.queue) > 0 && (victim == nil || len(v.queue) > len(victim.queue)) {
			victim = v
		}
	}
	last := len(victim.queue) - 1
	t := victim.queue[last]
	victim.queue[last] = Task{}
	victim.queue = victim.queue[:last]
	p.queued--
	p.start(w, t)
}

func (p *refPool) Size() int { return len(p.workers) }

// counts returns the busy and queued counters.
func (p *refPool) counts() (busy, queued int) { return p.busy, p.queued }
func (p *Pool) counts() (busy, queued int)    { return p.busy, p.queued }

// poolUnderTest is the part of Pool and refPool a script drives.
type poolUnderTest interface {
	Submit(t *Task, preferred int, front bool)
	Abort(owner any) int
	Size() int
	counts() (busy, queued int)
}

// poolSide is one pool under a script, on its own engine.
type poolSide struct {
	eng    *sim.Engine
	pool   poolUnderTest
	log    []poolFiring
	fireFn func(arg uint64) // ran, in Task.Fire form, bound once
	// held[id] is the caller's Task of task id, which the script may
	// change after Submit; owners[id] is the owner it was submitted with.
	held   []*Task
	owners []int
	// resubmitted[id] is set once task id's callback resubmitted held[id].
	resubmitted []bool
}

// poolFiring is one task run: when, and which task by script id.
type poolFiring struct {
	at time.Duration
	id int
}

const poolMaxDepth = 3

func newPoolSide(p poolUnderTest, eng *sim.Engine) *poolSide {
	s := &poolSide{eng: eng, pool: p}
	s.fireFn = func(arg uint64) { s.ran(int(arg>>8), int(arg&0xff)) }
	return s
}

// poolMix is a splitmix64 step: the test's deterministic source of task
// actions and script arguments.
func poolMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// submit hands the pool the task with the next id; v picks its
// affinity, queue end and owner. Every other task uses Fire/Arg.
func (s *poolSide) submit(d time.Duration, v uint64, depth int) {
	id := len(s.held)
	t := &Task{Name: "t", Owner: int(v % 3), Duration: d}
	if id%2 == 0 {
		t.Run = func() { s.ran(id, depth) }
	} else {
		t.Fire, t.Arg = s.fireFn, uint64(id)<<8|uint64(depth)
	}
	s.held = append(s.held, t)
	s.owners = append(s.owners, int(v%3))
	s.resubmitted = append(s.resubmitted, false)
	s.pool.Submit(t, s.preferred(v), v>>8&1 == 1)
}

// preferred derives a worker affinity, or -1 for none, from v.
func (s *poolSide) preferred(v uint64) int { return int(v>>2%uint64(s.pool.Size()+1)) - 1 }

// change rewrites the caller's copy of a submitted task, the k-th newest,
// to one that would run later, under another owner, and log as task -1.
// The pool holds its own copy, so nothing it runs may change.
func (s *poolSide) change(k int) {
	if len(s.held) == 0 {
		return
	}
	t := s.held[len(s.held)-1-k%len(s.held)]
	*t = Task{Name: "changed", Owner: -1, Duration: t.Duration*3 + 5}
	t.Run = func() { s.log = append(s.log, poolFiring{at: s.eng.Now(), id: -1}) }
}

// ran is task id's callback: it logs, then acts on a value derived from
// id alone, so both sides act alike.
func (s *poolSide) ran(id, depth int) {
	s.log = append(s.log, poolFiring{at: s.eng.Now(), id: id})
	if depth >= poolMaxDepth {
		return
	}
	v := poolMix(uint64(id))
	switch v % 8 {
	case 1: // a successor with a tie-prone duration
		s.submit(time.Duration(v>>16%8), v>>24, depth+1)
	case 2: // a successor due later
		s.submit(time.Duration(v>>16%4096)<<4, v>>32, depth+1)
	case 3:
		s.pool.Abort(int(v >> 16 % 3))
	case 4: // a plain engine event that submits when it fires
		s.eng.After(time.Duration(v>>16%64), func() { s.submit(time.Duration(v>>24%16), v>>32, depth+1) })
	case 5: // the caller's Task again, copied while its own copy runs
		if !s.resubmitted[id] {
			s.resubmitted[id] = true
			s.pool.Submit(s.held[id], s.preferred(v>>16), v>>24&1 == 1)
		}
	case 6: // abort the task's own owner
		s.pool.Abort(s.owners[id])
	}
}

// poolScript runs data as a script over all three sides and fails t on
// any divergence.
func poolScript(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	workers := 1 + int(data[0]%8)
	laneEng, heapEng, refEng := sim.NewEngine(), sim.NewEngine(), sim.NewEngine()
	lane := newPoolSide(NewData(laneEng, "data", workers), laneEng)
	heap := newPoolSide(New(heapEng, "data", workers), heapEng)
	ref := newPoolSide(newRefPool(refEng, workers), refEng)
	sides := []*poolSide{lane, heap, ref}
	names := []string{"lane", "heap", "reference"}
	for i := 1; i < len(data); i++ {
		op := data[i] % 8
		arg := func(n int) uint64 {
			v := uint64(0)
			for ; n > 0 && i+1 < len(data); n-- {
				i++
				v = v<<8 | uint64(data[i])
			}
			return v
		}
		switch op {
		case 0, 1: // near: many equal finish times
			d, v := time.Duration(arg(1)%16), arg(2)
			for _, s := range sides {
				s.submit(d, v, 0)
			}
		case 2: // far: finishes out of submission order
			d, v := time.Duration(arg(2))<<4, arg(2)
			for _, s := range sides {
				s.submit(d, v, 0)
			}
		case 3:
			owner := int(arg(1) % 3)
			want := ref.pool.Abort(owner)
			for j, s := range sides[:2] {
				if got := s.pool.Abort(owner); got != want {
					t.Fatalf("op %d: Abort(%d) removed %d on the %s, %d on the reference", i, owner, got, names[j], want)
				}
			}
		case 4:
			want := ref.eng.Step()
			for j, s := range sides[:2] {
				if got := s.eng.Step(); got != want {
					t.Fatalf("op %d: Step() = %v on the %s, %v on the reference", i, got, names[j], want)
				}
			}
		case 5:
			d := time.Duration(arg(2))
			for _, s := range sides {
				s.eng.RunUntil(s.eng.Now() + d)
			}
		case 6: // a plain engine event that submits when it fires
			d, v := time.Duration(arg(1)%32), arg(2)
			for _, s := range sides {
				s.eng.After(d, func() { s.submit(time.Duration(v%16), v>>4, 0) })
			}
		case 7: // the caller changes a task it submitted, queued or running
			k := int(arg(1) % 8)
			for _, s := range sides {
				s.change(k)
			}
		}
		rb, rq := ref.pool.counts()
		for j, s := range sides[:2] {
			if b, q := s.pool.counts(); s.eng.Now() != ref.eng.Now() || b != rb || q != rq || len(s.log) != len(ref.log) {
				t.Fatalf("op %d: %s at %v busy %d queued %d ran %d; reference at %v busy %d queued %d ran %d", i,
					names[j], s.eng.Now(), b, q, len(s.log), ref.eng.Now(), rb, rq, len(ref.log))
			}
		}
	}
	for _, s := range sides {
		s.eng.Run()
	}
	for j, s := range sides[:2] {
		if s.eng.Fired() != ref.eng.Fired() {
			t.Fatalf("Fired() = %d on the %s, %d on the reference", s.eng.Fired(), names[j], ref.eng.Fired())
		}
		if len(s.log) != len(ref.log) {
			t.Fatalf("%d tasks ran on the %s, %d on the reference", len(s.log), names[j], len(ref.log))
		}
		for i := range s.log {
			if s.log[i] != ref.log[i] {
				t.Fatalf("run %d: %s %+v, reference %+v", i, names[j], s.log[i], ref.log[i])
			}
		}
	}
}

// poolScriptFromSeed expands a seed into an n-byte script.
func poolScriptFromSeed(seed uint64, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		seed = poolMix(seed)
		data[i] = byte(seed)
	}
	return data
}

// FuzzDataPoolMatchesHeap drives a NewData pool, whose finishes go through
// a sim.Lane, a New pool, whose finishes are plain engine events, and
// refPool, the copy-based pool in test code, on three engines with the
// same script, and requires the same (time, task) firing log, the same
// counters and the same Fired() from all three. Scripts submit with and
// without affinity, at the front and the back, abort owners, step and
// advance the engines, schedule plain engine events between the pool's,
// and change the caller's copy of a task that is queued or running; task
// callbacks submit, abort (their own owner too), schedule, and resubmit
// their own caller's Task while its copy runs.
func FuzzDataPoolMatchesHeap(f *testing.F) {
	// Four workers, eight equal-length submits: the preprocess shards a
	// batch starts together, with ties on every finish.
	f.Add([]byte{3, 0, 5, 0, 0, 0, 5, 0, 1, 0, 5, 0, 2, 0, 5, 0, 3, 0, 5, 1, 0, 0, 5, 1, 1, 0, 5, 1, 2, 0, 5, 1, 3, 4, 4, 5, 0, 16})
	// One worker: task 0 runs and task 1 queues, then the caller changes
	// task 1 (queued) and task 0 (running).
	f.Add([]byte{0, 0, 5, 0, 0, 0, 5, 0, 0, 7, 0, 7, 1})
	// Two workers, six tasks of owners 0, 1, 2, 0, 1, 2: task 2's
	// callback aborts its own owner, whose task 5 is queued, and task 3's
	// resubmits its caller's Task while both workers are busy.
	f.Add([]byte{1, 0, 5, 0, 0, 0, 5, 0, 1, 0, 5, 0, 2, 0, 5, 0, 0, 0, 5, 0, 1, 0, 5, 0, 2})
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(poolScriptFromSeed(seed, 64<<(seed%4)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		poolScript(t, data)
	})
}
