package threadpool

import (
	"testing"
	"time"

	"switchflow/internal/sim"
)

// BenchmarkPoolTask times one task through the pool, as the bench
// module's threadpool cell does: four tasks on eight workers, each
// resubmitting its own Task from its callback, so every task starts at
// once on an idle worker, as an executor's launch tasks mostly do.
func BenchmarkPoolTask(b *testing.B) {
	eng := sim.NewEngine()
	p := New(eng, "global", 8)
	ran := 0
	for i := 0; i < 4; i++ {
		t := &Task{Name: "t", Duration: time.Duration(20+i) * time.Microsecond}
		t.Run = func() {
			ran++
			p.Submit(t, -1, false)
		}
		p.Submit(t, -1, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for start := ran; ran-start < b.N; {
		eng.Step()
	}
}
