package trace

import (
	"math"
	"testing"
	"time"

	"switchflow/internal/obs"
	"switchflow/internal/sim"
)

func TestProfileSharesSumToOne(t *testing.T) {
	stats := Profile(Spans([]obs.Event{
		kernel("conv", 1, 0, 10),
		kernel("conv", 1, 10, 30),
		kernel("gemm", 2, 0, 15),
		kernel("relu", 1, 30, 31),
	}))
	if len(stats) != 3 {
		t.Fatalf("got %d kernel stats, want 3", len(stats))
	}
	var sum float64
	for _, st := range stats {
		if st.Share < 0 || st.Share > 1 {
			t.Fatalf("%s: Share = %v outside [0,1]", st.Name, st.Share)
		}
		sum += st.Share
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Fatalf("shares sum to %v, want ~1.0", sum)
	}
}

func TestProfileAggregatesAndOrdersByTotalDescending(t *testing.T) {
	stats := Profile(Spans([]obs.Event{
		kernel("small", 1, 0, 2),
		kernel("big", 1, 2, 22),
		kernel("mid", 1, 22, 30),
		kernel("big", 1, 30, 40), // second call of "big"
	}))
	if stats[0].Name != "big" || stats[1].Name != "mid" || stats[2].Name != "small" {
		t.Fatalf("profile order = %s,%s,%s, want big,mid,small",
			stats[0].Name, stats[1].Name, stats[2].Name)
	}
	if stats[0].Count != 2 || stats[0].Total != 30*time.Millisecond {
		t.Fatalf("big: count=%d total=%v, want 2/30ms", stats[0].Count, stats[0].Total)
	}
	if stats[0].Mean != 15*time.Millisecond || stats[0].Max != 20*time.Millisecond {
		t.Fatalf("big: mean=%v max=%v, want 15ms/20ms", stats[0].Mean, stats[0].Max)
	}
}

func TestProfileEqualTotalsHaveStableOrder(t *testing.T) {
	// Three distinct (name, ctx) rows with identical totals: order must
	// fall back to (Name, Ctx) and replay identically.
	events := []obs.Event{
		kernel("b", 2, 0, 10),
		kernel("a", 1, 10, 20),
		kernel("a", 2, 20, 30),
	}
	want := Profile(Spans(events))
	if want[0].Name != "a" || want[0].Ctx != 1 ||
		want[1].Name != "a" || want[1].Ctx != 2 ||
		want[2].Name != "b" {
		t.Fatalf("tie-break order = %v", want)
	}
	for i := 0; i < 50; i++ {
		got := Profile(Spans(events))
		for j := range want {
			if got[j].Name != want[j].Name || got[j].Ctx != want[j].Ctx {
				t.Fatalf("iteration %d: order changed: %v vs %v", i, got, want)
			}
		}
	}
}

func TestSpansTieBreakByEmitSequence(t *testing.T) {
	// Zero-duration spans with identical (Start, Ctx): the emit order is
	// the only defensible order, and it must replay identically.
	events := []obs.Event{
		kernel("first", 1, 5, 5),
		kernel("second", 1, 5, 5),
		kernel("third", 1, 5, 5),
	}
	for i := 0; i < 50; i++ {
		spans := Spans(events)
		if spans[0].Name != "first" || spans[1].Name != "second" || spans[2].Name != "third" {
			t.Fatalf("iteration %d: identical-key spans reordered: %v", i, spans)
		}
	}
}

// A merged fleet stream restarts Seq on every machine, so equal
// (Start, Ctx) spans from two machines must keep their merged order, not
// their sequence numbers.
func TestSpansTieBreakKeepsMergedOrder(t *testing.T) {
	record := func(names ...string) []obs.Event {
		eng := sim.NewEngine()
		bus := obs.NewBus(eng)
		rec := obs.NewRecorder(0)
		bus.Subscribe(rec, Kinds...)
		for _, name := range names {
			bus.Emit(kernel(name, 1, 0, 0))
		}
		return rec.Events()
	}
	// Machine 0 emits three events and machine 1 one, so the merged
	// stream's sequence numbers run 1, 2, 3, 1.
	merged := obs.Merge(record("m0-a", "m0-b", "m0-c"), record("m1-a"))
	if merged[3].Seq >= merged[2].Seq {
		t.Fatalf("merged Seq %d after %d: want a sequence restart", merged[3].Seq, merged[2].Seq)
	}
	spans := Spans(merged)
	for i, want := range []string{"m0-a", "m0-b", "m0-c", "m1-a"} {
		if spans[i].Name != want {
			t.Fatalf("span %d = %s, want %s (merged order): %v", i, spans[i].Name, want, spans)
		}
	}
}
