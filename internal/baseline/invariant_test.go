package baseline

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/trace"
)

// TestThreadedTFViolatesInvariant1 checks that the overlap instrument
// core's TestInvariant1NoGPUCoRun relies on is not vacuous: threaded TF
// is SwitchFlow with invariant 1 off, and there GPU executors co-run.
func TestThreadedTFViolatesInvariant1(t *testing.T) {
	eng, machine := newMachine(device.ClassV100)
	rec := obs.NewRecorder(0)
	machine.Bus().Subscribe(rec, obs.KindKernelSpan)
	s := New(eng, machine, ThreadedTF)
	for _, name := range []string{"t1", "t2"} {
		if _, err := s.AddJob(trainCfg(t, name, "MobileNetV2", 16, device.GPUID(0))); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(5 * time.Second)
	spans := trace.Spans(rec.Events())
	ctxs := trace.Contexts(spans)
	if len(ctxs) != 2 {
		t.Fatalf("contexts = %v", ctxs)
	}
	// Light kernels from two streams admit together when nothing
	// arbitrates the GPU; some overlap must appear.
	if overlap := trace.OverlapTime(spans, ctxs[0], ctxs[1]) + trace.OverlapTime(spans, ctxs[1], ctxs[0]); overlap == 0 {
		t.Error("no overlap with nothing arbitrating the GPU")
	}
}
