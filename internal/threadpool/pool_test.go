package threadpool

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"switchflow/internal/sim"
)

func submitN(p *Pool, n int, d time.Duration, owner any, done *int) {
	for i := 0; i < n; i++ {
		p.Submit(&Task{Owner: owner, Duration: d, Run: func() { *done++ }}, -1, false)
	}
}

func TestPoolRunsTasksInParallel(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 4)
	done := 0
	submitN(p, 4, 10*time.Millisecond, nil, &done)
	eng.Run()
	if done != 4 {
		t.Fatalf("completed %d tasks, want 4", done)
	}
	if eng.Now() != 10*time.Millisecond {
		t.Fatalf("4 tasks on 4 workers took %v, want 10ms", eng.Now())
	}
}

func TestPoolQueuesBeyondWorkers(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 2)
	done := 0
	submitN(p, 4, 10*time.Millisecond, nil, &done)
	eng.Run()
	if done != 4 {
		t.Fatalf("completed %d tasks, want 4", done)
	}
	if eng.Now() != 20*time.Millisecond {
		t.Fatalf("4 tasks on 2 workers took %v, want 20ms", eng.Now())
	}
}

func TestPoolWorkStealing(t *testing.T) {
	// All tasks queued on worker 0; idle workers must steal them.
	eng := sim.NewEngine()
	p := New(eng, "global", 4)
	done := 0
	// First task starts on worker 0; the rest pile onto its queue only if
	// no one is idle — but workers 1-3 are idle, so they run immediately.
	for i := 0; i < 4; i++ {
		p.Submit(&Task{Duration: 10 * time.Millisecond, Run: func() { done++ }}, 0, false)
	}
	eng.Run()
	if eng.Now() != 10*time.Millisecond {
		t.Fatalf("stealable tasks took %v, want 10ms (ran in parallel)", eng.Now())
	}
	if done != 4 {
		t.Fatalf("completed %d, want 4", done)
	}
}

func TestPoolAffinityQueueWhenSaturated(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 1)
	var order []string
	p.Submit(&Task{Name: "first", Duration: time.Millisecond,
		Run: func() { order = append(order, "first") }}, 0, false)
	p.Submit(&Task{Name: "back", Duration: time.Millisecond,
		Run: func() { order = append(order, "back") }}, 0, false)
	p.Submit(&Task{Name: "front", Duration: time.Millisecond,
		Run: func() { order = append(order, "front") }}, 0, true)
	eng.Run()
	want := []string{"first", "front", "back"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestPoolAbortRemovesQueuedOnly(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 1)
	type jobKey struct{ name string }
	victim := &jobKey{"victim"}
	other := &jobKey{"other"}
	var ran []string
	p.Submit(&Task{Owner: victim, Duration: 10 * time.Millisecond,
		Run: func() { ran = append(ran, "running") }}, 0, false)
	p.Submit(&Task{Owner: victim, Duration: time.Millisecond,
		Run: func() { ran = append(ran, "queued-victim") }}, 0, false)
	p.Submit(&Task{Owner: other, Duration: time.Millisecond,
		Run: func() { ran = append(ran, "queued-other") }}, 0, false)
	eng.Schedule(time.Millisecond, func() {
		if got := p.Abort(victim); got != 1 {
			t.Errorf("Abort removed %d, want 1", got)
		}
	})
	eng.Run()
	if len(ran) != 2 || ran[0] != "running" || ran[1] != "queued-other" {
		t.Fatalf("ran %v, want [running queued-other]", ran)
	}
}

func TestPoolAbortKeepsOthersInOrder(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 1)
	type jobKey struct{ name string }
	a, b := &jobKey{"a"}, &jobKey{"b"}
	var ran []string
	names := []string{"running", "b1", "a1", "b2", "a2", "b3"}
	fire := func(i uint64) { ran = append(ran, names[i]) }
	submit := func(i int, owner *jobKey, front bool) {
		task := &Task{Owner: owner, Duration: time.Millisecond}
		if i%2 == 0 {
			task.Run = func() { ran = append(ran, names[i]) }
		} else {
			task.Fire, task.Arg = fire, uint64(i)
		}
		p.Submit(task, 0, front)
	}
	submit(0, a, false)
	submit(1, b, false)
	submit(2, a, false)
	submit(3, b, false)
	submit(4, a, true)
	submit(5, b, true)
	// Queue: b3 a2 b1 a1 b2.
	if got := p.Abort(a); got != 2 {
		t.Fatalf("Abort removed %d, want 2", got)
	}
	eng.Run()
	if want := []string{"running", "b3", "b1", "b2"}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
}

func TestPoolSubmitCopiesTask(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 1)
	var ran []string
	var at []time.Duration
	record := func(name string) func() {
		return func() { ran, at = append(ran, name), append(at, eng.Now()) }
	}
	p.Submit(&Task{Duration: time.Millisecond, Run: record("first")}, 0, false)
	task := &Task{Name: "queued", Duration: 2 * time.Millisecond, Run: record("queued")}
	p.Submit(task, 0, false)
	// Reuse the caller's task: the queued copy must not change.
	*task = Task{Name: "reused", Duration: 5 * time.Millisecond, Run: record("reused")}
	p.Submit(task, 0, false)
	eng.Run()
	if want := []string{"first", "queued", "reused"}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	if want := []time.Duration{time.Millisecond, 3 * time.Millisecond, 8 * time.Millisecond}; !slices.Equal(at, want) {
		t.Fatalf("finished at %v, want %v", at, want)
	}
}

func TestPoolCounters(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 2)
	done := 0
	submitN(p, 3, 10*time.Millisecond, nil, &done)
	if p.busy != 2 {
		t.Fatalf("busy = %d, want 2", p.busy)
	}
	if p.queued != 1 {
		t.Fatalf("queued = %d, want 1", p.queued)
	}
	eng.Run()
	if p.busy != 0 || p.queued != 0 {
		t.Fatalf("after drain Busy=%d Queued=%d", p.busy, p.queued)
	}
}

func TestPoolZeroDurationTask(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 1)
	done := false
	p.Submit(&Task{Duration: 0, Run: func() { done = true }}, -1, false)
	eng.Run()
	if !done {
		t.Fatal("zero-duration task never ran")
	}
}

// Property: every submitted task runs exactly once, for any worker count,
// task count, and duration mix.
func TestPoolCompletionProperty(t *testing.T) {
	prop := func(workerCount uint8, durs []uint8) bool {
		n := int(workerCount%8) + 1
		eng := sim.NewEngine()
		p := New(eng, "global", n)
		count := 0
		for _, d := range durs {
			p.Submit(&Task{
				Duration: time.Duration(d) * 100 * time.Microsecond,
				Run:      func() { count++ },
			}, int(d)%n, d%2 == 0)
		}
		eng.Run()
		return count == len(durs) && p.busy == 0 && p.queued == 0
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: with W workers and identical task durations d, makespan is
// ceil(n/W) * d — the pool never idles a worker while work is queued.
func TestPoolMakespanProperty(t *testing.T) {
	prop := func(workerCount, taskCount uint8) bool {
		w := int(workerCount%6) + 1
		n := int(taskCount % 40)
		eng := sim.NewEngine()
		p := New(eng, "global", w)
		d := time.Millisecond
		for i := 0; i < n; i++ {
			p.Submit(&Task{Duration: d}, i%w, false)
		}
		eng.Run()
		if n == 0 {
			return eng.Now() == 0
		}
		waves := (n + w - 1) / w
		return eng.Now() == time.Duration(waves)*d
	}
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// poolSnap is a pool's queueing state by task Arg: every local queue, the
// task each worker runs (0 when idle) and the busy count.
type poolSnap struct {
	queues  [][]uint64
	running []uint64
	busy    int
}

func snapshot(p *Pool) poolSnap {
	s := poolSnap{busy: p.busy}
	for _, w := range p.workers {
		q := make([]uint64, 0, len(w.queue))
		for _, t := range w.queue {
			q = append(q, t.Arg)
		}
		s.queues = append(s.queues, q)
		var running uint64
		if w.busy {
			running = w.task.Arg
		}
		s.running = append(s.running, running)
	}
	return s
}

// next is the reference for Pool.next: the worker's own queue head, else
// the tail of the longest queue found by scanning every worker, the lowest
// index on ties.
func (s *poolSnap) next(w int) {
	if q := s.queues[w]; len(q) > 0 {
		s.running[w], s.queues[w] = q[0], q[1:]
		s.busy++
		return
	}
	victim := -1
	for i, q := range s.queues {
		if len(q) > 0 && (victim < 0 || len(q) > len(s.queues[victim])) {
			victim = i
		}
	}
	if victim < 0 {
		return
	}
	q := s.queues[victim]
	s.running[w], s.queues[victim] = q[len(q)-1], q[:len(q)-1]
	s.busy++
}

func (s poolSnap) equal(o poolSnap) bool {
	if s.busy != o.busy || !slices.Equal(s.running, o.running) {
		return false
	}
	for i := range s.queues {
		if !slices.Equal(s.queues[i], o.queues[i]) {
			return false
		}
	}
	return true
}

// Property: over random Submit (affinity, front), Abort and engine steps,
// the queued count always equals the summed local queue lengths, and every
// worker that picks up work after a finish takes the task a full scan
// would pick: its own queue's head, else the tail of the
// longest queue, the lowest index on ties.
func TestPoolQueuedCountAndStealVictimProperty(t *testing.T) {
	prop := func(workerCount uint8, script []uint16) bool {
		n := int(workerCount%6) + 1
		eng := sim.NewEngine()
		p := New(eng, "global", n)
		owners := []any{new(int), new(int), new(int)}
		var fired uint64
		record := func(arg uint64) { fired = arg }
		nextArg := uint64(1)
		for i, op := range script {
			switch op % 3 {
			case 0:
				p.Submit(&Task{
					Owner:    owners[int(op>>2)%len(owners)],
					Duration: time.Duration(op>>5%4) * time.Millisecond,
					Fire:     record,
					Arg:      nextArg,
				}, int(op>>7)%(n+1)-1, op&(1<<12) != 0)
				nextArg++
			case 1:
				p.Abort(owners[int(op>>2)%len(owners)])
			case 2:
				want := snapshot(p)
				fired = 0
				if !eng.Step() {
					break
				}
				w := slices.Index(want.running, fired)
				want.running[w] = 0
				want.busy--
				want.next(w)
				if got := snapshot(p); !got.equal(want) {
					t.Logf("op %d: worker %d finished and left %+v, reference scan %+v", i, w, got, want)
					return false
				}
			}
			total := 0
			for _, q := range snapshot(p).queues {
				total += len(q)
			}
			if p.queued != total {
				t.Logf("op %d: queued = %d, local queues hold %d", i, p.queued, total)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
