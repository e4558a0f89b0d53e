package obs

import (
	"fmt"
	"testing"
	"time"

	"switchflow/internal/sim"
)

func TestBusSequenceAndFanOut(t *testing.T) {
	eng := sim.NewEngine()
	bus := NewBus(eng)
	a := NewRecorder(0)
	b := NewRecorder(0)
	bus.Subscribe(a)
	bus.Subscribe(b, KindPreempt)

	eng.Schedule(10*time.Millisecond, func() {
		bus.Emit(Event{Kind: KindKernelSpan, Ctx: 1, Name: "conv"})
		bus.Emit(Event{Kind: KindPreempt, Ctx: 2})
	})
	eng.RunUntil(20 * time.Millisecond)

	if a.Len() != 2 {
		t.Fatalf("all-kinds sink saw %d events, want 2", a.Len())
	}
	got := a.Events()
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("seqs = %d,%d, want 1,2", got[0].Seq, got[1].Seq)
	}
	if got[0].Time != 10*time.Millisecond {
		t.Errorf("event time = %v, want 10ms (virtual emit time)", got[0].Time)
	}
	if b.Len() != 1 || b.Events()[0].Kind != KindPreempt {
		t.Errorf("kind-filtered sink saw %d events (want only the Preempt)", b.Len())
	}
	// The filtered sink still sees the bus-wide numbering.
	if b.Events()[0].Seq != 2 {
		t.Errorf("filtered sink's event Seq = %d, want 2", b.Events()[0].Seq)
	}
}

func TestBusUnwantedKindsConsumeNoSequence(t *testing.T) {
	eng := sim.NewEngine()
	bus := NewBus(eng)
	rec := NewRecorder(0)
	bus.Subscribe(rec, KindPreempt)

	if bus.Wants(KindOpSched) {
		t.Fatal("Wants(OpSched) true with only a Preempt subscriber")
	}
	bus.Emit(Event{Kind: KindOpSched}) // dropped, no seq consumed
	bus.Emit(Event{Kind: KindPreempt})
	if got := rec.Events()[0].Seq; got != 1 {
		t.Errorf("Seq = %d after a dropped event, want 1 (drops must not burn numbers)", got)
	}
}

func TestNilBusIsSafe(t *testing.T) {
	var bus *Bus
	if bus.Wants(KindKernelSpan) {
		t.Error("nil bus reports subscribers")
	}
	bus.Emit(Event{Kind: KindKernelSpan}) // must not panic
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	for i := 1; i <= 5; i++ {
		r.Observe(Event{Seq: uint64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", r.Dropped())
	}
	got := r.Events()
	for i, want := range []uint64{3, 4, 5} {
		if got[i].Seq != want {
			t.Fatalf("Events()[%d].Seq = %d, want %d (oldest-first order)", i, got[i].Seq, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindKernelSpan; k < numKinds; k++ {
		if s := k.String(); s == "" || s == "Unknown" {
			t.Errorf("Kind(%d) has no name", k)
		}
	}
	if Kind(0).String() != "Unknown" || Kind(200).String() != "Unknown" {
		t.Error("out-of-range kinds should stringify as Unknown")
	}
}

func TestMaskAllCoversEveryKind(t *testing.T) {
	for k := KindKernelSpan; k < numKinds; k++ {
		if MaskAll&kindBit(k) == 0 {
			t.Errorf("MaskAll misses %v", k)
		}
	}
}

func TestSinkFunc(t *testing.T) {
	var seen []string
	s := SinkFunc(func(e Event) { seen = append(seen, fmt.Sprintf("%v:%s", e.Kind, e.Name)) })
	s.Observe(Event{Kind: KindLaunch, Name: "gemm"})
	if len(seen) != 1 || seen[0] != "Launch:gemm" {
		t.Errorf("SinkFunc saw %v", seen)
	}
}
