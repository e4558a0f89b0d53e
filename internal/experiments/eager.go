package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/sim"
)

// EagerRow compares execution modes for one model (§1's static-vs-dynamic
// contrast): dynamic-graph (eager) execution pays per-op dispatch and
// cannot optimize the graph; static execution replays a planned graph;
// fused static execution additionally merges elementwise ops into their
// producers (grappler-style).
type EagerRow struct {
	Model        string
	Batch        int
	EagerImgPS   float64
	StaticImgPS  float64
	FusedImgPS   float64
	StaticSpeedX float64 // static vs eager
	FusedSpeedX  float64 // fused vs eager
}

// eagerModels spans kernel-count extremes: many tiny kernels
// (MobileNetV2, DenseNet121) vs few huge ones (VGG16).
var eagerModels = []string{"MobileNetV2", "DenseNet121", "ResNet50", "VGG16"}

// EagerComparison measures solo training throughput per mode on a V100.
func EagerComparison() []EagerRow {
	rows := make([]EagerRow, 0, len(eagerModels))
	for _, model := range eagerModels {
		rows = append(rows, EagerCell(model, 32))
	}
	return rows
}

// EagerCell measures one model at the given batch.
func EagerCell(model string, batch int) EagerRow {
	row := EagerRow{
		Model:       model,
		Batch:       batch,
		EagerImgPS:  eagerOne(model, batch, true, false),
		StaticImgPS: eagerOne(model, batch, false, false),
		FusedImgPS:  eagerOne(model, batch, false, true),
	}
	if row.EagerImgPS > 0 {
		row.StaticSpeedX = row.StaticImgPS / row.EagerImgPS
		row.FusedSpeedX = row.FusedImgPS / row.EagerImgPS
	}
	return row
}

func eagerOne(model string, batch int, eager, fuse bool) float64 {
	eng := sim.NewEngine()
	machine := machineFor(eng, "V100")
	sched := baseline.New(eng, machine, baseline.ThreadedTF)
	cfg := trainConfig("solo", model, batch, 1)
	cfg.Eager = eager
	cfg.Fuse = fuse
	job, err := sched.AddJob(cfg)
	if err != nil {
		panic(err)
	}
	const (
		warm    = 3 * time.Second
		measure = 20 * time.Second
	)
	eng.RunUntil(warm)
	start := job.Iterations
	eng.RunUntil(warm + measure)
	if job.Crashed() {
		return 0
	}
	return float64((job.Iterations-start)*batch) / measure.Seconds()
}
