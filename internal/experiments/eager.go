package experiments

import (
	"time"

	"switchflow/internal/baseline"
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
	w := onGPU("V100", scheduler{policy: baseline.ThreadedTF})
	cfg := trainConfig("solo", model, batch, 1)
	cfg.Eager = eager
	cfg.Fuse = fuse
	return w.imgPerSec(3*time.Second, 20*time.Second, must(w.add(cfg)))[0]
}
