package threadpool

import (
	"testing"
	"time"

	"switchflow/internal/sim"
)

// Six self-resubmitting tasks on three workers, all preferring worker 0:
// a task resubmits while its worker is still busy, so it queues on worker
// 0 (every other one at the front), and workers 1 and 2, finding their own
// queues empty, steal from worker 0's tail. Half the tasks use Run, half
// Fire/Arg. After warm-up none of it may allocate.
func TestPoolSubmitAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 3)
	tasks := make([]Task, 6)
	ran, maxQueued := 0, 0
	resubmit := func(i uint64) {
		ran++
		maxQueued = max(maxQueued, p.queued)
		p.Submit(&tasks[i], 0, i%2 == 0)
	}
	for i := range tasks {
		tasks[i] = Task{Name: "t", Duration: time.Duration(20+i) * time.Microsecond}
		if i%2 == 0 {
			i := uint64(i)
			tasks[i].Run = func() { resubmit(i) }
		} else {
			tasks[i].Fire, tasks[i].Arg = resubmit, uint64(i)
		}
		p.Submit(&tasks[i], 0, false)
	}
	steps := func() {
		for i := 0; i < 1000; i++ {
			eng.Step()
		}
	}
	steps()
	before := ran
	// AllocsPerRun makes one more, unmeasured, warm-up call.
	if allocs := testing.AllocsPerRun(5, steps); allocs != 0 {
		t.Errorf("%v allocations per 1000 events, want 0", allocs)
	}
	if ran == before || maxQueued < 3 {
		t.Fatalf("tasks ran %d -> %d, most queued %d: want progress with 3 queued", before, ran, maxQueued)
	}
}
