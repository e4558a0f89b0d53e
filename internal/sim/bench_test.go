package sim

import (
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

// eventQueue abstracts over the wheel Engine and the HeapEngine reference
// so the depth benchmarks below run both from one body and report the
// speedup regime-by-regime.
type eventQueue[E any] interface {
	Schedule(at time.Duration, fn func()) E
	Step() bool
	Now() time.Duration
}

type cancellable interface{ Cancel() }

// benchScheduleStep is the steady-state schedule-then-fire cycle at a fixed
// queue depth — the regime fleet-scale serving sweeps live in once every
// machine has thousands of in-flight arrival/completion events.
func benchScheduleStep[E any](b *testing.B, e eventQueue[E], depth time.Duration) {
	fn := func() {}
	for i := time.Duration(0); i < depth; i++ {
		e.Schedule(i, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+depth, fn)
		e.Step()
	}
}

// benchRescheduleStorm is the cancel-heavy pattern the GPU model produces
// under preemption churn: every iteration cancels a pending completion and
// schedules its replacement, on top of a deep standing queue.
func benchRescheduleStorm[E cancellable](b *testing.B, e eventQueue[E], depth time.Duration) {
	fn := func() {}
	for i := time.Duration(0); i < depth; i++ {
		e.Schedule(i, fn)
	}
	pending := make([]E, 0, 64)
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
}

// BenchmarkEngineDepth compares wheel vs heap across queue depths. Depth
// 256 is the PR-1 regime; 4k and 64k are the fleet-scale regimes that
// motivated the wheel (ROADMAP item 2).
func BenchmarkEngineDepth(b *testing.B) {
	for _, depth := range []time.Duration{256, 4096, 65536} {
		depth := depth
		b.Run("wheel/"+depth.String(), func(b *testing.B) {
			benchScheduleStep[Event](b, NewEngine(), depth)
		})
		b.Run("heap/"+depth.String(), func(b *testing.B) {
			benchScheduleStep[HeapEvent](b, NewHeapEngine(), depth)
		})
	}
}

// BenchmarkEngineRescheduleStorm compares wheel vs heap under cancel-heavy
// churn at the same depths as BenchmarkEngineDepth.
func BenchmarkEngineRescheduleStorm(b *testing.B) {
	for _, depth := range []time.Duration{256, 4096, 65536} {
		depth := depth
		b.Run("wheel/"+depth.String(), func(b *testing.B) {
			benchRescheduleStorm[Event](b, NewEngine(), depth)
		})
		b.Run("heap/"+depth.String(), func(b *testing.B) {
			benchRescheduleStorm[HeapEvent](b, NewHeapEngine(), depth)
		})
	}
}
