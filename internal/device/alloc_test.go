package device

import (
	"fmt"
	"slices"
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
	if len(s1.queue) != 1 || len(s2.queue) != 1 {
		t.Fatalf("pending %d/%d, want one queued behind the in-flight kernel", len(s1.queue), len(s2.queue))
	}
	requireStepsAllocFree(t, eng, gpu)
}

// Every scheduling event names its device, whether or not the bus keeps
// it, so ID.String must match the fmt form it replaced without
// allocating.
func TestIDStringMatchesFmtAllocFree(t *testing.T) {
	ids := []ID{CPUID, {Kind: KindGPU, Index: 64}, {Kind: KindCPU, Index: 2}, {Kind: Kind(7), Index: -1}}
	for i := 0; i < 64; i++ {
		ids = append(ids, GPUID(i))
	}
	for _, id := range ids {
		if got, want := id.String(), fmt.Sprintf("%s:%d", id.Kind, id.Index); got != want {
			t.Errorf("ID%+v.String() = %q, want %q", id, got, want)
		}
	}
	for _, id := range append(ids[:1:1], ids[4:]...) {
		if allocs := testing.AllocsPerRun(10, func() { sink = id.String() }); allocs != 0 {
			t.Errorf("%v.String() makes %v allocations, want 0", id, allocs)
		}
	}
}

var sink string

// A stream that is preempted over and over: each round aborts the backlog
// and drains the in-flight kernel, and the drain callback enqueues the
// next round. Once warm, the drain bookkeeping allocates nothing.
func TestStreamDrainAllocFree(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	k := Kernel{Name: "k", Work: 40 * time.Microsecond, Occupancy: 0.9}
	var round func()
	round = func() {
		s.Enqueue(k)
		s.Enqueue(k)
		s.Abort()
		s.Drain(round)
	}
	round()
	requireStepsAllocFree(t, eng, gpu)
}

// A drain callback that calls Drain on a stream with work in flight lands
// in the next round, not the one being delivered.
func TestStreamDrainFromCallbackWaitsForNextRound(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	k := Kernel{Name: "k", Work: time.Millisecond, Occupancy: 0.9}
	var order []string
	s.Enqueue(k)
	s.Drain(func() {
		order = append(order, "first@"+eng.Now().String())
		s.Enqueue(k)
		s.Drain(func() { order = append(order, "second@"+eng.Now().String()) })
	})
	s.Drain(func() { order = append(order, "peer@"+eng.Now().String()) })
	eng.Run()
	if want := []string{"first@1ms", "peer@1ms", "second@2ms"}; !slices.Equal(order, want) {
		t.Fatalf("drain order %v, want %v", order, want)
	}
}

// Tagged transfers complete in issue order at the times Transfer would
// give, interleaved with closure transfers, and allocate nothing once
// warm.
func TestCopyEngineTransferTaggedAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	ce := NewCopyEngine(eng, 10)
	var got []uint64
	var at []time.Duration
	record := func(arg uint64) {
		got = append(got, arg)
		at = append(at, eng.Now())
	}
	var want []time.Duration
	for i := uint64(0); i < 4; i++ {
		want = append(want, ce.TransferTagged(int64(1+i)<<20, record, i))
		ce.Transfer(1<<20, 1, func() {})
	}
	eng.Run()
	if !slices.Equal(got, []uint64{0, 1, 2, 3}) || !slices.Equal(at, want) {
		t.Fatalf("completions %v at %v, want [0 1 2 3] at %v", got, at, want)
	}
	var again func(uint64)
	again = func(arg uint64) { ce.TransferTagged(1<<20, again, arg+1) }
	for i := uint64(0); i < 3; i++ {
		ce.TransferTagged(1<<20, again, i)
	}
	steps := func() {
		for i := 0; i < 100; i++ {
			eng.Step()
		}
	}
	steps()
	if allocs := testing.AllocsPerRun(5, steps); allocs != 0 {
		t.Errorf("%v allocations per 100 tagged transfers, want 0", allocs)
	}
}

// A one-stream chain in which each completion enqueues the next kernel
// needs one kernel slot: the GPU recycles a finished kernel's slot before
// its callback fires, so the callback's launch reuses it. Recycling after
// the callback would keep a second slot per GPU.
func TestGPUFreeListHighWater(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	n := 0
	var k Kernel
	k = Kernel{Name: "k", Work: 40 * time.Microsecond, Occupancy: 0.9, OnDone: func() {
		if n++; n < 1000 {
			s.Enqueue(k)
		}
	}}
	s.Enqueue(k)
	eng.Run()
	if n != 1000 {
		t.Fatalf("%d kernels completed, want 1000", n)
	}
	if slots := len(gpu.free) + len(gpu.running) + len(gpu.queue); slots != 1 {
		t.Fatalf("%d kernel slots allocated, want 1", slots)
	}
}
