package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEngineScheduleStep measures the steady-state schedule-then-fire
// cycle with a realistic queue depth (a few hundred outstanding events, the
// regime the experiment sweeps run in).
func BenchmarkEngineScheduleStep(b *testing.B) {
	const depth = 256
	e := NewEngine()
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.Schedule(time.Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+depth, fn)
		e.Step()
	}
}

// BenchmarkEngineCancel measures the schedule-cancel pattern the GPU model
// hits on every kernel enqueue/retire (reschedule cancels the pending
// completion event and schedules a new one).
func BenchmarkEngineCancel(b *testing.B) {
	const depth = 128
	e := NewEngine()
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.Schedule(time.Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(e.Now()+depth/2, fn)
		ev.Cancel()
	}
}

// BenchmarkEngineMixed interleaves schedules, cancels, and steps in the
// proportions a serving-plus-training cell produces: most events fire, a
// steady fraction are cancelled completion events.
func BenchmarkEngineMixed(b *testing.B) {
	const depth = 256
	e := NewEngine()
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.Schedule(time.Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(e.Now()+depth/4, fn)
		e.Schedule(e.Now()+depth, fn)
		if i%4 != 0 {
			ev.Cancel()
		}
		e.Step()
	}
}

// kernelDelays returns n delays spread log-uniformly over 1 µs to ~8 ms,
// the span of worker-task and kernel durations on the kernel path.
func kernelDelays(n int) []time.Duration {
	rng := diffRNG(7)
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Microsecond << (rng.next() % 13)
		ds[i] += time.Duration(rng.next() % uint64(ds[i]))
	}
	return ds
}

// BenchmarkEngineDepth times the steady-state schedule-then-fire cycle.
// The dense shapes hold 256, 4k and 64k events spaced 1 ns apart. The
// sparse shape is the regime the workloads run in: 32 pending events, each
// replaced by one due microseconds to milliseconds later.
func BenchmarkEngineDepth(b *testing.B) {
	fn := func() {}
	for _, depth := range []time.Duration{256, 4096, 65536} {
		b.Run(fmt.Sprintf("dense/%d", depth), func(b *testing.B) {
			e := NewEngine()
			for i := time.Duration(0); i < depth; i++ {
				e.Schedule(i, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(e.Now()+depth, fn)
				e.Step()
			}
		})
	}
	b.Run("sparse/32", func(b *testing.B) {
		delays := kernelDelays(1024)
		e := NewEngine()
		for _, d := range delays[:32] {
			e.Schedule(d, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(e.Now()+delays[i%len(delays)], fn)
			e.Step()
		}
	})
}

// BenchmarkEngineRescheduleStorm is the cancel-heavy pattern the GPU model
// produces under preemption churn: every iteration cancels a pending
// completion and schedules its replacement, on top of a deep standing
// queue.
func BenchmarkEngineRescheduleStorm(b *testing.B) {
	fn := func() {}
	for _, depth := range []time.Duration{256, 4096, 65536} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			e := NewEngine()
			for i := time.Duration(0); i < depth; i++ {
				e.Schedule(i, fn)
			}
			pending := make([]Event, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(pending) == cap(pending) {
					for _, ev := range pending {
						ev.Cancel()
					}
					pending = pending[:0]
				}
				pending = append(pending, e.Schedule(e.Now()+depth/2, fn))
				e.Schedule(e.Now()+depth, fn)
				e.Step()
			}
		})
	}
}

// BenchmarkEngineChain times the pattern the kernel path runs and the
// other benchmarks miss: a firing event's callback schedules the next
// event of its chain, which is usually the new minimum. One chain steps a
// few µs at a time over 64 long-lived background events, and each
// background event reschedules itself one ms ahead when it fires. In the
// heap variant the background events sit in the heap, as every event did
// before lanes; in the lane variant they go through one Lane, the data
// pools' shape, so the heap holds two entries. One op is one fired event.
func BenchmarkEngineChain(b *testing.B) {
	for _, lane := range []bool{false, true} {
		name := "heap"
		if lane {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			const background = 64
			e := NewEngine()
			l := e.NewLane(background)
			steps := [...]time.Duration{3 * time.Microsecond, 5 * time.Microsecond, 2 * time.Microsecond, 7 * time.Microsecond}
			n := 0
			var chain, idle func()
			chain = func() {
				n++
				e.After(steps[n%len(steps)], chain)
			}
			after := func(d time.Duration, fn func()) { e.After(d, fn) }
			if lane {
				after = l.After
			}
			idle = func() { after(time.Millisecond, idle) }
			for i := 0; i < background; i++ {
				after(time.Duration(i)*time.Millisecond/background, idle)
			}
			e.Schedule(0, chain)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
