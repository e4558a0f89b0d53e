package workload

import (
	"testing"
	"time"
)

// TestArrivalQueueBoundsMemory is the unbounded-growth regression: the
// old `q = q[1:]` pop kept the whole backing array live, so a steady
// push/pop stream grew memory with every request ever served. The ring
// must keep its backing array sized to the high-water depth.
func TestArrivalQueueBoundsMemory(t *testing.T) {
	var q arrivalQueue
	for i := 0; i < 100000; i++ {
		q.Push(time.Duration(i))
		if got := q.Pop(); got != time.Duration(i) {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
	if len(q.buf) > 8 {
		t.Fatalf("steady-state depth-1 queue grew backing array to %d", len(q.buf))
	}
}

func TestArrivalQueueFIFOAcrossWrap(t *testing.T) {
	var q arrivalQueue
	for i := 0; i < 5; i++ {
		q.Push(time.Duration(i))
	}
	q.Pop()
	q.Pop()
	for i := 5; i < 12; i++ {
		q.Push(time.Duration(i)) // forces growth with head offset
	}
	for want := 2; q.Len() > 0; want++ {
		if got := q.Pop(); got != time.Duration(want) {
			t.Fatalf("Pop() = %v, want %v", got, want)
		}
	}
}

func TestArrivalQueuePushFront(t *testing.T) {
	var q arrivalQueue
	q.Push(10)
	q.PushFront([]time.Duration{1, 2, 3})
	want := []time.Duration{1, 2, 3, 10}
	got := q.PopN(nil, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PopN = %v, want %v", got, want)
		}
	}
}
