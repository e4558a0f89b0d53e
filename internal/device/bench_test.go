package device

import (
	"testing"
	"time"
)

// BenchmarkStreamKernel times one kernel through a stream and the GPU, as
// the bench module's stream cell does: one stream with one kernel in
// flight and one queued, re-enqueueing on completion, the shape an
// executor run drives.
func BenchmarkStreamKernel(b *testing.B) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	var k Kernel
	k = Kernel{Name: "k", Work: 40 * time.Microsecond, Occupancy: 0.9, Ctx: 1,
		OnDone: func() { s.Enqueue(k) }}
	s.Enqueue(k)
	s.Enqueue(k)
	b.ReportAllocs()
	b.ResetTimer()
	for start := gpu.Launched(); gpu.Launched()-start < uint64(b.N); {
		eng.Step()
	}
}
