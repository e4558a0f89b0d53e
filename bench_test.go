package switchflow_test

// One benchmark per table and figure of the paper's evaluation (§5). Each
// runs a reduced version of the corresponding experiment harness and
// reports paper-relevant quantities as custom metrics, so
// `go test -bench=. -benchmem` regenerates the whole evaluation in
// miniature. cmd/swbench produces the full-size tables.

import (
	"testing"
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/experiments"
)

func BenchmarkTable1StateTransfer(b *testing.B) {
	var lastMS float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		lastMS = rows[0].TransferMS
	}
	b.ReportMetric(lastMS, "resnet50-ms")
}

func BenchmarkFigure2Timeline(b *testing.B) {
	var res experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure2(3 * time.Second)
	}
	b.ReportMetric(res.SoloImgPerSec, "solo-img/s")
	b.ReportMetric(res.CoRunImgPerSec[0], "corun-img/s")
	b.ReportMetric(res.OverlapFraction*100, "overlap-%")
}

func BenchmarkFigure3PipelineBreakdown(b *testing.B) {
	var rows []experiments.Figure3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure3(5)
	}
	var maxIdle float64
	for _, r := range rows {
		if r.IdleFrac > maxIdle {
			maxIdle = r.IdleFrac
		}
	}
	b.ReportMetric(float64(len(rows)), "cells")
	b.ReportMetric(maxIdle*100, "max-idle-%")
}

func BenchmarkFigure6TailLatency(b *testing.B) {
	var row experiments.Figure6Row
	for i := 0; i < b.N; i++ {
		row = experiments.Figure6Cell("VGG16", "ResNet50", 30)
	}
	b.ReportMetric(row.TFP95MS, "tf-p95-ms")
	b.ReportMetric(row.SFP95MS, "sf-p95-ms")
	b.ReportMetric(row.Speedup, "speedup-x")
}

func BenchmarkFigure6NMT(b *testing.B) {
	var row experiments.Figure6Row
	for i := 0; i < b.N; i++ {
		row = experiments.Figure6Cell("VGG16", "NMT", 20)
	}
	b.ReportMetric(row.Speedup, "speedup-x")
}

func BenchmarkFigure7Throughput(b *testing.B) {
	var threaded, sf experiments.Figure7Row
	for i := 0; i < b.N; i++ {
		threaded = experiments.Figure7Baseline(baseline.ThreadedTF, "a", "GTX 1080 Ti", "ResNet50", "VGG16")
		sf = experiments.Figure7SwitchFlow("e", nil, "ResNet50", "VGG16")
	}
	b.ReportMetric(threaded.ModelCoRun, "threaded-corun-img/s")
	b.ReportMetric(sf.ModelCoRun, "sf-high-img/s")
	b.ReportMetric(sf.BackgroundCoRun, "sf-low-img/s")
}

func BenchmarkFigure8InputReuseIdentical(b *testing.B) {
	var row experiments.Figure8Row
	for i := 0; i < b.N; i++ {
		row = experiments.Figure8Cell("V100", "ResNet50", false, 128, 10)
	}
	b.ReportMetric(row.ImprovePct, "improve-%")
}

func BenchmarkFigure9InputReuseMixed(b *testing.B) {
	var row experiments.Figure9Row
	for i := 0; i < b.N; i++ {
		row = experiments.Figure9Cell([]string{"ResNet50", "VGG16", "InceptionV3"}, 64, 8)
	}
	b.ReportMetric(row.ImprovePct, "improve-%")
}

func BenchmarkFigure10Interleaving(b *testing.B) {
	var row experiments.Figure10Row
	for i := 0; i < b.N; i++ {
		row = experiments.Figure10Cell("a", "VGG16", false, "MobileNetV2", 8)
	}
	b.ReportMetric(row.ImprovePct, "improve-%")
}

func BenchmarkPreemptionOverhead(b *testing.B) {
	var res experiments.PreemptionResult
	for i := 0; i < b.N; i++ {
		res = experiments.PreemptionOverhead("ResNet50", 20)
	}
	b.ReportMetric(res.P95GrantMS, "grant-p95-ms")
	b.ReportMetric(res.MaxGrantMS, "grant-max-ms")
}

func BenchmarkAblationInvariants(b *testing.B) {
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Ablation(15)
	}
	for _, r := range rows {
		if r.Variant == "full" {
			b.ReportMetric(r.ServeP95MS, "full-p95-ms")
		}
		if r.Variant == "no-gpu-exclusive" {
			b.ReportMetric(r.ServeP95MS, "noexcl-p95-ms")
		}
	}
}

func BenchmarkAblationMigration(b *testing.B) {
	var rows []experiments.AblationMigrationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationMigration()
	}
	for _, r := range rows {
		if r.Variant == "async-transfer" {
			b.ReportMetric(r.HighFirstStepSec*1e3, "async-first-ms")
		} else {
			b.ReportMetric(r.HighFirstStepSec*1e3, "sync-first-ms")
		}
	}
}

func BenchmarkGandivaComparison(b *testing.B) {
	var row experiments.GandivaRow
	for i := 0; i < b.N; i++ {
		row = experiments.GandivaCell("ResNet50", 15)
	}
	b.ReportMetric(row.SFP95MS, "sf-p95-ms")
	b.ReportMetric(row.CkptP95MS, "ckpt-p95-ms")
}

func BenchmarkLoadSweepPoint(b *testing.B) {
	var row experiments.LoadRow
	for i := 0; i < b.N; i++ {
		row = experiments.LoadPoint(10, 25)
	}
	b.ReportMetric(row.TFP95MS, "tf-p95-ms")
	b.ReportMetric(row.SFP95MS, "sf-p95-ms")
}

func BenchmarkEagerVsStatic(b *testing.B) {
	var row experiments.EagerRow
	for i := 0; i < b.N; i++ {
		row = experiments.EagerCell("DenseNet121", 32)
	}
	b.ReportMetric(row.StaticSpeedX, "static-x")
	b.ReportMetric(row.FusedSpeedX, "fused-x")
}

func BenchmarkFleetServing(b *testing.B) {
	var rows []experiments.FleetRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fleet(15*time.Second, 100_000)
	}
	for _, r := range rows {
		if r.Autoscaled {
			b.ReportMetric(r.GoodputPS, r.Strategy+"-goodput/s")
		}
	}
}
