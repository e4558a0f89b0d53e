package device

import (
	"testing"
	"time"

	"switchflow/internal/sim"
)

// requireStepsAllocFree warms eng up, then requires that further steps of
// the kernel path allocate nothing and still launch kernels.
func requireStepsAllocFree(t *testing.T, eng *sim.Engine, gpu *GPU) {
	t.Helper()
	drained := false
	steps := func() {
		for i := 0; i < 1000; i++ {
			if !eng.Step() {
				drained = true
				return
			}
		}
	}
	steps()
	before := gpu.Launched()
	// AllocsPerRun makes one more, unmeasured, warm-up call.
	if allocs := testing.AllocsPerRun(5, steps); allocs != 0 {
		t.Errorf("%v allocations per 1000 events, want 0", allocs)
	}
	if drained || gpu.Launched() == before {
		t.Fatalf("kernel path stalled: drained=%v, launched %d -> %d", drained, before, gpu.Launched())
	}
}

// Four contexts share the GPU (occupancies sum below 1), each resubmitting
// its kernel on completion: two through OnDone, two through Done/Tag.
func TestGPUSubmitAllocFree(t *testing.T) {
	eng, gpu := newTestGPU()
	kernels := make([]Kernel, 4)
	resubmit := func(tag int32) { gpu.Submit(kernels[tag]) }
	for c := range kernels {
		k := &kernels[c]
		*k = Kernel{Name: "k", Work: time.Duration(40+7*c) * time.Microsecond, Occupancy: 0.2, Ctx: c + 1}
		if c%2 == 0 {
			k.OnDone = func() { gpu.Submit(*k) }
		} else {
			k.Done, k.Tag = resubmit, int32(c)
		}
		gpu.Submit(*k)
	}
	requireStepsAllocFree(t, eng, gpu)
}

// Two streams share the GPU, each with one kernel in flight and one queued,
// re-enqueueing on completion: one through OnDone, one through Done/Tag.
func TestStreamEnqueueAllocFree(t *testing.T) {
	eng, gpu := newTestGPU()
	s1, s2 := NewStream(gpu), NewStream(gpu)
	var k1, k2 Kernel
	k1 = Kernel{Name: "k1", Work: 40 * time.Microsecond, Occupancy: 0.4, Ctx: 1,
		OnDone: func() { s1.Enqueue(k1) }}
	k2 = Kernel{Name: "k2", Work: 47 * time.Microsecond, Occupancy: 0.4, Ctx: 2,
		Done: func(int32) { s2.Enqueue(k2) }}
	for i := 0; i < 2; i++ {
		s1.Enqueue(k1)
		s2.Enqueue(k2)
	}
	if s1.Pending() != 1 || s2.Pending() != 1 {
		t.Fatalf("pending %d/%d, want one queued behind the in-flight kernel", s1.Pending(), s2.Pending())
	}
	requireStepsAllocFree(t, eng, gpu)
}
