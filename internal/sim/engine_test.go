package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if len(e.heap) != 0 {
		t.Fatalf("Pending() = %d, want 0", len(e.heap))
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.Run()
	want := []time.Duration{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order %v, want ascending", got)
		}
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestEngineAfterNegativeClampsToNow(t *testing.T) {
	e := NewEngine()
	var at time.Duration = -1
	e.Schedule(10, func() {
		e.After(-5, func() { at = e.Now() })
	})
	e.Run()
	if at != 10 {
		t.Fatalf("After(-5) fired at %v, want 10", at)
	}
}

// TestEngineAfterCapsAtEndOfTime checks that a delay past the end of
// virtual time schedules at the end instead of wrapping into the past,
// through Engine.After and Lane.After alike.
func TestEngineAfterCapsAtEndOfTime(t *testing.T) {
	e := NewEngine()
	l := e.NewLane(1)
	var at []time.Duration
	e.Schedule(110*time.Millisecond, func() {
		for _, d := range []time.Duration{math.MaxInt64, math.MaxInt64 - 100*time.Millisecond, math.MaxInt64 - 110*time.Millisecond} {
			e.After(d, func() { at = append(at, e.Now()) })
		}
		l.After(math.MaxInt64, func() { at = append(at, e.Now()) })
	})
	e.RunUntil(time.Hour)
	if len(at) != 0 {
		t.Fatalf("capped events fired by %v: %v", e.Now(), at)
	}
	e.Run()
	want := []time.Duration{math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64}
	if !slices.Equal(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("schedule in past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

func TestEventCancelDuringRun(t *testing.T) {
	e := NewEngine()
	var later Event
	fired := false
	e.Schedule(1, func() { later.Cancel() })
	later = e.Schedule(2, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i+1), func() {})
	}
	if len(e.heap) != 5 {
		t.Fatalf("Pending() = %d, want 5", len(e.heap))
	}
	evs[1].Cancel()
	evs[3].Cancel()
	if len(e.heap) != 3 {
		t.Fatalf("Pending() after two cancels = %d, want 3", len(e.heap))
	}
	evs[3].Cancel() // double cancel is a no-op
	if len(e.heap) != 3 {
		t.Fatalf("Pending() after double cancel = %d, want 3", len(e.heap))
	}
	e.Run()
	if len(e.heap) != 0 {
		t.Fatalf("Pending() after Run = %d, want 0", len(e.heap))
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", e.Fired())
	}
}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	first := e.Schedule(1, func() {})
	e.Step() // fires first; its event struct returns to the free list
	fired := false
	e.Schedule(2, func() { fired = true }) // reuses the recycled struct
	first.Cancel()                         // stale: must not touch the new event
	if first.Scheduled() {
		t.Fatal("fired handle still reports Scheduled")
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel removed an unrelated recycled event")
	}
}

func TestScheduledReflectsLifecycle(t *testing.T) {
	e := NewEngine()
	var zero Event
	if zero.Scheduled() {
		t.Fatal("zero handle reports Scheduled")
	}
	ev := e.Schedule(1, func() {})
	if !ev.Scheduled() {
		t.Fatal("pending event not Scheduled")
	}
	ev.Cancel()
	if ev.Scheduled() {
		t.Fatal("cancelled event still Scheduled")
	}
}

func TestSteadyStateReusesEvents(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Step()
	if len(e.free) != 1 {
		t.Fatalf("free list has %d entries, want 1", len(e.free))
	}
	recycled := e.free[0]
	ev := e.Schedule(2, func() {})
	if ev.ev != recycled {
		t.Fatal("Schedule did not reuse the recycled event struct")
	}
	if len(e.free) != 0 {
		t.Fatalf("free list has %d entries after reuse, want 0", len(e.free))
	}
}

// TestCallbackReentersEngine checks that a callback may call Step and
// RunUntil on its own engine: the nested fire pops the spent root first,
// so the caller's event never fires twice and an empty heap stops it.
func TestCallbackReentersEngine(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(1, func() {
		got = append(got, 1)
		if !e.Step() {
			t.Error("nested Step found nothing to fire")
		}
		e.RunUntil(3)
		if e.Step() {
			t.Error("nested Step fired on an empty heap")
		}
	})
	e.Schedule(2, func() { got = append(got, 2) })
	e.Schedule(3, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 || e.Fired() != 3 {
		t.Fatalf("fired %v (%d), want [1 2 3]", got, e.Fired())
	}
	if len(e.heap) != 0 || len(e.free) != 3 {
		t.Fatalf("heap %d, free list %d; want 0 and 3", len(e.heap), len(e.free))
	}
}

// TestEngineStepAllocFree pins the engine's zero-allocation steady state
// in both loop shapes BenchmarkEngineDepth and
// BenchmarkEngineRescheduleStorm time: schedule+step, and the cancel-heavy
// storm that also cancels a 64-entry pending slice whenever it fills. Each
// measured run is one full drain-and-refill of the standing queue, and
// every allocation in it counts. The heap and the free list reach their
// final capacity within the warm-up drain-and-refills, so three run first.
func TestEngineStepAllocFree(t *testing.T) {
	fn := func() {}
	for _, depth := range []time.Duration{256, 4096, 65536} {
		for _, storm := range []bool{false, true} {
			e := NewEngine()
			for i := time.Duration(0); i < depth; i++ {
				e.Schedule(i, fn)
			}
			pending := make([]Event, 0, 64)
			cycle := func() {
				if storm {
					if len(pending) == cap(pending) {
						for _, ev := range pending {
							ev.Cancel()
						}
						pending = pending[:0]
					}
					pending = append(pending, e.Schedule(e.Now()+depth/2, fn))
				}
				e.Schedule(e.Now()+depth, fn)
				e.Step()
			}
			refill := func() {
				for i := time.Duration(0); i < depth; i++ {
					cycle()
				}
			}
			refill()
			refill()
			// AllocsPerRun makes one more, unmeasured, warm-up call.
			allocs := testing.AllocsPerRun(1, refill)
			if allocs != 0 {
				t.Errorf("depth %d storm=%v: %v allocations over %d cycles, want 0",
					depth, storm, allocs, depth)
			}
		}
	}

	// The data pools' shape: 32 items out of time order in one lane,
	// drained and refilled.
	e := NewEngine()
	l := e.NewLane(32)
	delays := kernelDelays(32)
	refill := func() {
		for _, d := range delays {
			l.After(d, fn)
		}
		for e.Step() {
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(1, refill); allocs != 0 {
		t.Errorf("lane: %v allocations over 32 items, want 0", allocs)
	}
}

// Property: cancelling an arbitrary subset leaves the survivors firing in
// exactly the original (time, schedule-order) sequence.
func TestCancelPreservesOrderProperty(t *testing.T) {
	type rec struct {
		at  time.Duration
		seq int
	}
	prop := func(delays []uint16, mask []bool) bool {
		e := NewEngine()
		var got []rec
		evs := make([]Event, len(delays))
		for i, d := range delays {
			i, d := i, d
			evs[i] = e.Schedule(time.Duration(d), func() {
				got = append(got, rec{time.Duration(d), i})
			})
		}
		var want []rec
		for i, d := range delays {
			if i < len(mask) && mask[i] {
				evs[i].Cancel()
				continue
			}
			want = append(want, rec{time.Duration(d), i})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilHonoursHorizon(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{10, 20, 30} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.RunUntil(20)
	if len(got) != 2 {
		t.Fatalf("fired %d events, want 2", len(got))
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	e.Run()
	if len(got) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(got))
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("Now() = %v, want 500", e.Now())
	}
}

func TestRunUntilFiresEventsScheduledWithinHorizon(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.RunUntil(100)
	if at != 15 {
		t.Fatalf("nested event fired at %v, want 15", at)
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	e.RunFor(50)
	if e.Now() != 150 {
		t.Fatalf("Now() = %v, want 150", e.Now())
	}
}

func TestStepSkipsCancelled(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	fired := false
	e.Schedule(2, func() { fired = true })
	ev.Cancel()
	if !e.Step() {
		t.Fatal("Step() = false with live event pending")
	}
	if !fired {
		t.Fatal("live event did not fire")
	}
	if e.Step() {
		t.Fatal("Step() = true on empty queue")
	}
}

func TestFiredCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: regardless of the (non-negative) delays chosen, events fire in
// nondecreasing time order and the clock never moves backwards.
func TestEngineMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(time.Duration(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && e.Fired() == uint64(len(delays))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil(t) fires exactly the events with timestamp <= t.
func TestRunUntilBoundaryProperty(t *testing.T) {
	prop := func(delays []uint16, horizon uint16) bool {
		e := NewEngine()
		want := 0
		fired := 0
		for _, d := range delays {
			if time.Duration(d) <= time.Duration(horizon) {
				want++
			}
			e.Schedule(time.Duration(d), func() { fired++ })
		}
		e.RunUntil(time.Duration(horizon))
		return fired == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNanos(t *testing.T) {
	tests := []struct {
		ns   float64
		want time.Duration
	}{
		{0, 0},
		{1.9, 1},
		{-1.9, -1},
		{1.5e9, 1500 * time.Millisecond},
		{1 << 62, 1 << 62},
		// The largest float64 below 2^63 converts exactly.
		{math.Nextafter(1<<63, 0), 1<<63 - 1024},
		{-math.Nextafter(1<<63, 0), -(1<<63 - 1024)},
		{1 << 63, math.MaxInt64},
		{-(1 << 63), -math.MaxInt64},
		{1.1 * 9e18, math.MaxInt64},
		{-1e300, -math.MaxInt64},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), -math.MaxInt64},
		{math.NaN(), 0},
	}
	for _, tt := range tests {
		if got := Nanos(tt.ns); got != tt.want {
			t.Errorf("Nanos(%v) = %d, want %d", tt.ns, got, tt.want)
		}
	}
}
