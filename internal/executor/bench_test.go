package executor

import (
	"testing"

	"switchflow/internal/device"
	"switchflow/internal/models"
)

// BenchmarkExecutorKernel times one kernel of back-to-back ResNet50 BS=32
// training runs on a V100, as the bench module's executor cell does: each
// kernel's worker tasks, launch, stream and GPU completion, and the
// dependency bookkeeping between kernels. One full run warms it up.
func BenchmarkExecutorKernel(b *testing.B) {
	f := newFixture(device.ClassXeonDual.Cores - 4)
	spec, err := models.ByName("ResNet50")
	if err != nil {
		b.Fatal(err)
	}
	subs := buildSubgraphs(b, spec, models.BuildConfig{Batch: 32, Training: true, Device: device.GPUID(0)})
	compute := subs[len(subs)-1]
	gpu := f.machine.GPU(0)
	cfg := f.gpuConfig(device.NewStream(gpu))
	cfg.Ctx, cfg.Bus = 1, f.machine.Bus()
	runs := 0
	var start func()
	start = func() {
		runs++
		if _, err := Start(f.eng, compute, cfg, start); err != nil {
			b.Fatal(err)
		}
	}
	start()
	for runs < 2 {
		f.eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for begin := gpu.Launched(); gpu.Launched()-begin < uint64(b.N); {
		f.eng.Step()
	}
}
