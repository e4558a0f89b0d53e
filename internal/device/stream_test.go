package device

import (
	"slices"
	"testing"
	"time"
)

func TestStreamSerializesKernels(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		s.Enqueue(Kernel{Name: "k", Work: 10 * time.Millisecond, Occupancy: 0.9,
			OnDone: func() { ends = append(ends, eng.Now()) }})
	}
	eng.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(ends) != 3 {
		t.Fatalf("got %d completions, want 3", len(ends))
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("completions %v, want %v", ends, want)
		}
	}
}

func TestTwoStreamsContendLikeFigure2(t *testing.T) {
	// Two streams of heavy kernels on one GPU: per-stream progress should
	// be roughly half of solo speed (the paper's 226 -> 116 img/s drop).
	eng, gpu := newTestGPU()
	s1, s2 := NewStream(gpu), NewStream(gpu)
	var end1, end2 time.Duration
	const kernels = 10
	for i := 0; i < kernels; i++ {
		s1.Enqueue(Kernel{Name: "m1", Ctx: 1, Work: time.Millisecond, Occupancy: 0.9,
			OnDone: func() { end1 = eng.Now() }})
		s2.Enqueue(Kernel{Name: "m2", Ctx: 2, Work: time.Millisecond, Occupancy: 0.9,
			OnDone: func() { end2 = eng.Now() }})
	}
	eng.Run()
	solo := kernels * time.Millisecond
	slowdown1 := float64(end1) / float64(solo)
	slowdown2 := float64(end2) / float64(solo)
	for _, sd := range []float64{slowdown1, slowdown2} {
		if sd < 1.85 || sd > 2.0 {
			t.Fatalf("co-run slowdown = %.2f, want ~1.94 (paper: 226/116)", sd)
		}
	}
}

func TestStreamAbortDiscardsQueueOnly(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	finished := map[string]bool{}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Enqueue(Kernel{Name: name, Work: 10 * time.Millisecond, Occupancy: 0.9,
			OnDone: func() { finished[name] = true }})
	}
	// Abort mid-way through kernel "a": b and c are queued, a in flight.
	eng.Schedule(5*time.Millisecond, func() {
		if got := s.Abort(); got != 2 {
			t.Errorf("Abort() discarded %d kernels, want 2", got)
		}
	})
	eng.Run()
	if !finished["a"] {
		t.Error("in-flight kernel a must run to completion")
	}
	if finished["b"] || finished["c"] {
		t.Errorf("aborted kernels ran: %v", finished)
	}
	// Worst-case preemption latency = remainder of the in-flight kernel.
	if eng.Now() != 10*time.Millisecond {
		t.Errorf("drain completed at %v, want 10ms", eng.Now())
	}
}

func TestStreamDrainFiresWhenEmpty(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	fired := false
	s.Drain(func() { fired = true })
	if !fired {
		t.Fatal("Drain on empty stream must fire inline")
	}
	// Now with work in flight.
	s.Enqueue(Kernel{Name: "k", Work: 5 * time.Millisecond, Occupancy: 0.9})
	var at time.Duration = -1
	s.Drain(func() { at = eng.Now() })
	eng.Run()
	if at != 5*time.Millisecond {
		t.Fatalf("Drain fired at %v, want 5ms", at)
	}
}

func TestStreamDrainAfterAbort(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	s.Enqueue(Kernel{Name: "a", Work: 10 * time.Millisecond, Occupancy: 0.9})
	s.Enqueue(Kernel{Name: "b", Work: 10 * time.Millisecond, Occupancy: 0.9})
	var at time.Duration = -1
	eng.Schedule(2*time.Millisecond, func() {
		s.Abort()
		s.Drain(func() { at = eng.Now() })
	})
	eng.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("post-abort drain at %v, want 10ms (in-flight kernel end)", at)
	}
}

func TestStreamEnqueueAfterAbortResumes(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	s.Enqueue(Kernel{Name: "a", Work: 2 * time.Millisecond, Occupancy: 0.9})
	s.Abort() // no queued kernels; a stays in flight
	done := false
	eng.Schedule(5*time.Millisecond, func() {
		s.Enqueue(Kernel{Name: "b", Work: time.Millisecond, Occupancy: 0.9,
			OnDone: func() { done = true }})
	})
	eng.Run()
	if !done {
		t.Fatal("kernel enqueued after abort never ran")
	}
}

// The stream holds the in-flight kernel's callback itself; aborting and
// re-enqueueing behind it must fire only the in-flight and new kernels,
// and a drain waiter exactly once.
func TestStreamAbortThenReenqueue(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	var fired []string
	record := func(name string) func() { return func() { fired = append(fired, name) } }
	names := []string{"a", "b", "c", "d", "e"}
	tagged := func(tag int32) { fired = append(fired, names[tag]) }
	s.Enqueue(Kernel{Name: "a", Work: 10 * time.Millisecond, Occupancy: 0.9, OnDone: record("a")})
	s.Enqueue(Kernel{Name: "b", Work: 10 * time.Millisecond, Occupancy: 0.9, Done: tagged, Tag: 1})
	s.Enqueue(Kernel{Name: "c", Work: 10 * time.Millisecond, Occupancy: 0.9, OnDone: record("c")})
	drained := 0
	eng.Schedule(2*time.Millisecond, func() {
		if got := s.Abort(); got != 2 {
			t.Errorf("Abort() discarded %d kernels, want 2", got)
		}
		s.Enqueue(Kernel{Name: "d", Work: time.Millisecond, Occupancy: 0.9, Done: tagged, Tag: 3})
		s.Enqueue(Kernel{Name: "e", Work: time.Millisecond, Occupancy: 0.9, OnDone: record("e")})
		s.Drain(func() { drained++ })
	})
	eng.Run()
	if want := []string{"a", "d", "e"}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if drained != 1 {
		t.Errorf("drain fired %d times, want 1", drained)
	}
	if eng.Now() != 12*time.Millisecond {
		t.Errorf("stream drained at %v, want 12ms", eng.Now())
	}
}

func TestStreamMultipleDrainWaiters(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	s.Enqueue(Kernel{Name: "k", Work: 5 * time.Millisecond, Occupancy: 0.9})
	fired := 0
	s.Drain(func() { fired++ })
	s.Drain(func() { fired++ })
	eng.Run()
	if fired != 2 {
		t.Fatalf("drain waiters fired %d times, want 2", fired)
	}
}

func TestStreamDrainNotFiredWhileBacklog(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	s.Enqueue(Kernel{Name: "a", Work: time.Millisecond, Occupancy: 0.9})
	s.Enqueue(Kernel{Name: "b", Work: time.Millisecond, Occupancy: 0.9})
	var at time.Duration = -1
	s.Drain(func() { at = eng.Now() })
	eng.Run()
	if at != 2*time.Millisecond {
		t.Fatalf("drain fired at %v, want 2ms (after the backlog)", at)
	}
}
