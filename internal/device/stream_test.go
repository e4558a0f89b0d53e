package device

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"switchflow/internal/sim"
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

// The stream hands each kernel to the GPU once and gets it back at
// completion: the kernel's own callback fires from there, exactly once,
// and the next kernel issues in FIFO order whichever way it arrived.
func TestStreamHandOffContract(t *testing.T) {
	type world struct {
		eng *sim.Engine
		gpu *GPU
		s   *Stream
		log func(string) func()
	}
	kernel := func(name string, onDone func()) Kernel {
		return Kernel{Name: name, Work: time.Millisecond, Occupancy: 0.9, OnDone: onDone}
	}
	for _, tc := range []struct {
		name string
		run  func(w world)
		want []string
	}{{
		name: "enqueue from a callback with an empty queue",
		run: func(w world) {
			w.s.Enqueue(kernel("a", func() {
				w.log("a")()
				w.s.Enqueue(kernel("c", w.log("c")))
			}))
		},
		want: []string{"1ms a", "2ms c"},
	}, {
		name: "enqueue from a callback behind a queued kernel",
		run: func(w world) {
			w.s.Enqueue(kernel("a", func() {
				w.log("a")()
				w.s.Enqueue(kernel("c", w.log("c")))
			}))
			w.s.Enqueue(kernel("b", w.log("b")))
		},
		want: []string{"1ms a", "2ms b", "3ms c"},
	}, {
		name: "direct and stream kernels share the device",
		run: func(w world) {
			tagged := func(tag int32) { w.log("s" + strconv.Itoa(int(tag)))() }
			light := func(k Kernel) Kernel { k.Occupancy = 0.4; return k }
			w.gpu.Submit(light(kernel("d1", w.log("d1"))))
			w.s.Enqueue(light(Kernel{Name: "s1", Work: time.Millisecond, Done: tagged, Tag: 1}))
			w.s.Enqueue(light(Kernel{Name: "s2", Work: time.Millisecond, Done: tagged, Tag: 2}))
			w.gpu.Submit(light(kernel("d2", w.log("d2"))))
		},
		// d1 and s1 co-run at the contended rate (1.06 ms, rounded up to
		// the next nanosecond); d2 waits for room at the device, s2 for s1.
		want: []string{"1.060001ms d1", "1.060001ms s1", "2.120002ms d2", "2.120002ms s2"},
	}, {
		name: "a failure leaves the stream in flight",
		run: func(w world) {
			w.s.Enqueue(kernel("a", w.log("a")))
			w.s.Enqueue(kernel("b", w.log("b")))
			w.s.Drain(w.log("drained"))
			w.eng.Schedule(500*time.Microsecond, func() {
				w.gpu.Fail()
				w.gpu.Heal()
				w.s.Enqueue(kernel("c", w.log("c")))
				w.gpu.Submit(kernel("d", w.log("d")))
			})
		},
		want: []string{"1.5ms d"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			eng, gpu := newTestGPU()
			var got []string
			w := world{eng: eng, gpu: gpu, s: NewStream(gpu), log: func(name string) func() {
				return func() { got = append(got, eng.Now().String()+" "+name) }
			}}
			tc.run(w)
			eng.Run()
			if !slices.Equal(got, tc.want) {
				t.Fatalf("callbacks %q, want %q", got, tc.want)
			}
		})
	}
}
