package experiments

import (
	"testing"
	"time"

	"switchflow/internal/baseline"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 8 {
		t.Fatalf("Table1 has %d rows, want 8", len(rows))
	}
	for _, row := range rows {
		sizeRatio := row.StatefulMB / row.PaperMB
		if sizeRatio < 0.9 || sizeRatio > 1.1 {
			t.Errorf("%s: stateful %.2f MiB vs paper %.2f (ratio %.2f)",
				row.Model, row.StatefulMB, row.PaperMB, sizeRatio)
		}
		timeRatio := row.TransferMS / row.PaperMS
		if timeRatio < 0.75 || timeRatio > 1.3 {
			t.Errorf("%s: transfer %.2f ms vs paper %.2f (ratio %.2f)",
				row.Model, row.TransferMS, row.PaperMS, timeRatio)
		}
	}
}

func TestFigure2ShowsSerializationAndSlowdown(t *testing.T) {
	res := Figure2(10 * time.Second)
	// Paper: 226 img/s solo, 116 each co-run.
	if res.SoloImgPerSec < 150 || res.SoloImgPerSec > 320 {
		t.Errorf("solo = %.0f img/s, want ~226", res.SoloImgPerSec)
	}
	for i, rate := range res.CoRunImgPerSec {
		slowdown := res.SoloImgPerSec / rate
		if slowdown < 1.6 || slowdown > 2.5 {
			t.Errorf("co-run[%d] = %.0f img/s (slowdown %.2f), want ~2x", i, rate, slowdown)
		}
	}
	// "Spatial multiplexing is barely beneficial": heavy kernels almost
	// never overlap.
	if res.OverlapFraction > 0.2 {
		t.Errorf("kernel overlap fraction = %.2f, want near zero", res.OverlapFraction)
	}
	if len(res.Spans) == 0 {
		t.Error("timeline empty")
	}
}

func TestFigure3InferenceIdlesMoreThanTraining(t *testing.T) {
	const iters = 15
	trainRow := figure3One("V100", "ResNet50", true, 32, iters)
	inferRow := figure3One("V100", "ResNet50", false, 128, iters)
	if trainRow.SessionMS == 0 || inferRow.SessionMS == 0 {
		t.Fatalf("empty rows: %+v %+v", trainRow, inferRow)
	}
	// Figure 3 (b) vs (e): training overlaps CPU and GPU better, so
	// inference idles more.
	if inferRow.IdleFrac <= trainRow.IdleFrac {
		t.Errorf("inference idle %.2f not above training idle %.2f",
			inferRow.IdleFrac, trainRow.IdleFrac)
	}
	// Lightweight models idle most on fast GPUs (the NASNetMobile ~90%
	// observation).
	mob := figure3One("V100", "MobileNetV2", false, 128, iters)
	if mob.IdleFrac < 0.6 {
		t.Errorf("MobileNetV2 V100 inference idle = %.2f, want > 0.6", mob.IdleFrac)
	}
	// The embedded TX2 is GPU-bound instead.
	tx2 := figure3One("Jetson TX2", "ResNet50", false, 8, iters)
	if tx2.IdleFrac > mob.IdleFrac {
		t.Errorf("TX2 idle %.2f should be below V100 MobileNetV2 idle %.2f",
			tx2.IdleFrac, mob.IdleFrac)
	}
}

func TestFigure6SwitchFlowBeatsTF(t *testing.T) {
	row := Figure6Cell("VGG16", "ResNet50", 40)
	if row.TFP95MS == 0 || row.SFP95MS == 0 {
		t.Fatalf("empty row: %+v", row)
	}
	// Heavier training -> larger gap; VGG16 should show a clear multiple.
	if row.Speedup < 2 {
		t.Errorf("speedup = %.2fx (TF %.1f ms vs SF %.1f ms), want >= 2x",
			row.Speedup, row.TFP95MS, row.SFP95MS)
	}
	// Light training job: near parity (its kernels are tiny, so the TF
	// baseline barely contends; see EXPERIMENTS.md).
	light := Figure6Cell("MobileNetV2", "ResNet50", 40)
	if light.Speedup < 0.9 {
		t.Errorf("MobileNetV2 background speedup %.2f < 0.9", light.Speedup)
	}
	if light.Speedup > row.Speedup {
		t.Errorf("light background speedup %.2f exceeds heavy %.2f",
			light.Speedup, row.Speedup)
	}
}

func TestFigure6NMTHasLargestGap(t *testing.T) {
	nmt := Figure6Cell("VGG16", "NMT", 30)
	cnn := Figure6Cell("VGG16", "MobileNetV2", 30)
	if nmt.Speedup <= cnn.Speedup {
		t.Errorf("NMT speedup %.2f not above MobileNetV2 %.2f (paper: NMT+VGG16 is the 19x maximum)",
			nmt.Speedup, cnn.Speedup)
	}
}

func TestFigure7ThreadedSlowsOrOOMs(t *testing.T) {
	row := Figure7Baseline(baseline.ThreadedTF, "a", "GTX 1080 Ti", "ResNet50", "InceptionResNetV2")
	if row.OOM {
		return // a crash is an acceptable Figure 7 outcome
	}
	if row.BackgroundCoRun >= row.BackgroundSolo {
		t.Errorf("co-run bg %.0f img/s not below solo %.0f", row.BackgroundCoRun, row.BackgroundSolo)
	}
	if row.ModelCoRun >= row.ModelSolo {
		t.Errorf("co-run model %.0f img/s not below solo %.0f", row.ModelCoRun, row.ModelSolo)
	}
}

func TestFigure7ThreadedOOMOnBigPair(t *testing.T) {
	// NASNetLarge-class activations cannot share 11 GB with ResNet50.
	row := Figure7Baseline(baseline.ThreadedTF, "a", "GTX 1080 Ti", "ResNet50", "InceptionResNetV2")
	big := Figure7Baseline(baseline.ThreadedTF, "a", "GTX 1080 Ti", "ResNet50", "VGG16")
	if !row.OOM && !big.OOM {
		t.Skip("no OOM for these pairs at BS=32; covered by baseline tests with NASNetLarge")
	}
}

func TestFigure7MPSCrashesOn11GB(t *testing.T) {
	row := Figure7Baseline(baseline.MPS, "x", "GTX 1080 Ti", "ResNet50", "ResNet50")
	if !row.OOM {
		t.Error("MPS fit two reservations in 11 GB")
	}
	v100 := Figure7Baseline(baseline.MPS, "c", "V100", "ResNet50", "MobileNetV2")
	if v100.OOM {
		t.Error("MPS crashed on the 32 GB V100")
	}
	if v100.ModelCoRun == 0 || v100.BackgroundCoRun == 0 {
		t.Errorf("MPS V100 throughputs: %+v", v100)
	}
}

func TestFigure7SwitchFlowMigratesWithoutCrash(t *testing.T) {
	row := Figure7SwitchFlow("e", twoGPU(), "ResNet50", "VGG16")
	if row.OOM {
		t.Fatalf("SwitchFlow crashed: %+v", row)
	}
	if row.LowDevice != "gpu:0" {
		t.Errorf("low job on %s, want gpu:0 (the 1080 Ti)", row.LowDevice)
	}
	if row.ModelCoRun == 0 {
		t.Error("high-priority job made no progress")
	}
	if row.BackgroundCoRun == 0 {
		t.Error("migrated low-priority job made no progress")
	}
	// High-priority throughput should approach its solo rate (it owns the
	// 2080 Ti), far better than threaded sharing.
	if row.ModelSolo > 0 && row.ModelCoRun < 0.5*row.ModelSolo {
		t.Errorf("high-prio co-run %.0f below half of solo %.0f", row.ModelCoRun, row.ModelSolo)
	}
}

func TestFigure7SwitchFlowCPUFallback(t *testing.T) {
	row := Figure7SwitchFlow("d", nil, "MobileNetV2", "ResNet50")
	if row.OOM {
		t.Fatalf("crash: %+v", row)
	}
	if row.LowDevice != "cpu:0" {
		t.Errorf("low job on %s, want cpu:0", row.LowDevice)
	}
	// The CPU-migrated job suffers drastically (Figure 7 d).
	if row.BackgroundSolo > 0 && row.BackgroundCoRun > 0.3*row.BackgroundSolo {
		t.Errorf("CPU fallback throughput %.1f img/s suspiciously close to GPU solo %.1f",
			row.BackgroundCoRun, row.BackgroundSolo)
	}
}

func TestFigure8InferenceGainsExceedTraining(t *testing.T) {
	const iters = 12
	train := Figure8Cell("V100", "ResNet50", true, 32, iters)
	infer := Figure8Cell("V100", "ResNet50", false, 128, iters)
	if train.BaselineSec == 0 || infer.BaselineSec == 0 {
		t.Fatalf("empty cells: %+v %+v", train, infer)
	}
	// Figure 8: training gains are marginal, inference gains are large.
	if infer.ImprovePct <= train.ImprovePct {
		t.Errorf("inference gain %.1f%% not above training gain %.1f%%",
			infer.ImprovePct, train.ImprovePct)
	}
	if infer.ImprovePct < 15 {
		t.Errorf("inference input-reuse gain = %.1f%%, want substantial", infer.ImprovePct)
	}
	if train.ImprovePct < -10 {
		t.Errorf("training gain = %.1f%%, regression too large", train.ImprovePct)
	}
}

func TestFigure9MoreModelsDiminishingGains(t *testing.T) {
	const iters = 10
	two := Figure9Cell([]string{"ResNet50", "VGG16"}, 64, iters)
	four := Figure9Cell([]string{"ResNet50", "VGG16", "InceptionV3", "DenseNet121"}, 64, iters)
	if two.ImprovePct <= 0 {
		t.Errorf("2-model reuse gain %.1f%% not positive", two.ImprovePct)
	}
	if four.ImprovePct <= 0 {
		t.Errorf("4-model reuse gain %.1f%% not positive", four.ImprovePct)
	}
	// Bigger batches help more (CPU becomes the bottleneck).
	small := Figure9Cell([]string{"ResNet50", "VGG16"}, 32, iters)
	big := Figure9Cell([]string{"ResNet50", "VGG16"}, 128, iters)
	if big.ImprovePct < small.ImprovePct-5 {
		t.Errorf("BS=128 gain %.1f%% well below BS=32 gain %.1f%%", big.ImprovePct, small.ImprovePct)
	}
}

func TestFigure10InterleavingBeatsTimeSlicing(t *testing.T) {
	const iters = 10
	row := Figure10Cell("a", "VGG16", false, "MobileNetV2", iters)
	if row.BaselineSec == 0 || row.SFSec == 0 {
		t.Fatalf("empty row: %+v", row)
	}
	if row.ImprovePct <= 5 {
		t.Errorf("interleaving gain = %.1f%%, want clearly positive (paper: ~30%%)",
			row.ImprovePct)
	}
}

func TestPreemptionOverheadBounded(t *testing.T) {
	res := PreemptionOverhead("ResNet50", 30)
	if res.Preemptions == 0 {
		t.Fatal("no preemptions recorded")
	}
	// §5.2.3: worst-case preemption latency is a few tens of ms.
	if res.MaxGrantMS > 60 {
		t.Errorf("max grant latency = %.1f ms, want <= 60", res.MaxGrantMS)
	}
	if res.TransferMS <= 0 || res.StateMB <= 0 {
		t.Errorf("transfer stats empty: %+v", res)
	}
}

func TestAblationShapes(t *testing.T) {
	rows := Ablation(25)
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full := byName["full"]
	if full.ServeP95MS == 0 {
		t.Fatal("full variant produced no latencies")
	}
	// Invariant 1 off: contention returns, tails grow.
	if noEx := byName["no-gpu-exclusive"]; noEx.ServeP95MS < full.ServeP95MS {
		t.Errorf("no-gpu-exclusive p95 %.1f ms below full %.1f ms", noEx.ServeP95MS, full.ServeP95MS)
	}
	// Invariant 2 off: the training job loses pipeline overlap.
	if noCPU := byName["no-free-cpu"]; noCPU.TrainImgPS > full.TrainImgPS {
		t.Errorf("no-free-cpu training %.1f img/s above full %.1f", noCPU.TrainImgPS, full.TrainImgPS)
	}
}

func TestAblationMigrationSyncIsSlower(t *testing.T) {
	rows := AblationMigration()
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	async, sync := rows[0], rows[1]
	if sync.HighFirstStepSec < async.HighFirstStepSec {
		t.Errorf("sync transfer first step %.3fs faster than async %.3fs",
			sync.HighFirstStepSec, async.HighFirstStepSec)
	}
}

func TestGandivaCheckpointPreemptionIsSlower(t *testing.T) {
	row := GandivaCell("VGG16", 25)
	if row.SFP95MS == 0 || row.CkptP95MS == 0 {
		t.Fatalf("empty row: %+v", row)
	}
	// §6: checkpoint suspend-resume saves/restores hundreds of MiB and
	// waits out the mini-batch — intolerable for inference. SwitchFlow's
	// abort-and-resume must be clearly faster.
	if row.CkptP95MS < 2*row.SFP95MS {
		t.Errorf("checkpoint p95 %.1f ms not >> SwitchFlow %.1f ms", row.CkptP95MS, row.SFP95MS)
	}
	if row.CkptGrantP95MS < row.SFGrantP95MS {
		t.Errorf("checkpoint grant %.1f ms below SwitchFlow %.1f ms",
			row.CkptGrantP95MS, row.SFGrantP95MS)
	}
}

func TestGandivaCheckpointScalesWithStateSize(t *testing.T) {
	small := GandivaCell("MobileNetV2", 20)
	big := GandivaCell("VGG16", 20)
	// VGG16's 1 GiB checkpoint plus its long mini-batch dwarf
	// MobileNetV2's 27 MiB.
	if big.CkptGrantP95MS <= small.CkptGrantP95MS {
		t.Errorf("VGG16 checkpoint grant %.1f ms not above MobileNetV2 %.1f ms",
			big.CkptGrantP95MS, small.CkptGrantP95MS)
	}
}

func TestLoadSweepShapes(t *testing.T) {
	light := LoadPoint(2, 40)
	heavy := LoadPoint(20, 40)
	// SwitchFlow stays flat as load grows; the TF baseline's queue blows
	// up well before 20 req/s because contention inflates its service
	// time.
	if light.SFP95MS <= 0 || light.TFP95MS <= 0 {
		t.Fatalf("empty load point: %+v", light)
	}
	if heavy.SFP95MS > 5*light.SFP95MS {
		t.Errorf("SwitchFlow p95 exploded with load: %.1f -> %.1f ms",
			light.SFP95MS, heavy.SFP95MS)
	}
	if heavy.TFP95MS < 3*heavy.SFP95MS {
		t.Errorf("TF p95 %.1f ms not well above SwitchFlow %.1f ms at 20 req/s",
			heavy.TFP95MS, heavy.SFP95MS)
	}
	if light.TFP99MS < light.TFP95MS || light.SFP99MS < light.SFP95MS {
		t.Errorf("p99 below p95: %+v", light)
	}
}

func TestEagerModeOrdering(t *testing.T) {
	// DenseNet121 has hundreds of small kernels per step — the worst case
	// for per-op eager dispatch (§1: static graphs are "significantly
	// faster than dynamic graphs").
	dense := EagerCell("DenseNet121", 32)
	if dense.EagerImgPS <= 0 || dense.StaticImgPS <= 0 || dense.FusedImgPS <= 0 {
		t.Fatalf("empty row: %+v", dense)
	}
	if dense.StaticSpeedX < 1.2 {
		t.Errorf("static speedup %.2fx over eager for DenseNet121, want >= 1.2", dense.StaticSpeedX)
	}
	if dense.FusedSpeedX < dense.StaticSpeedX-0.05 {
		t.Errorf("fusion (%.2fx) regressed below static (%.2fx)",
			dense.FusedSpeedX, dense.StaticSpeedX)
	}
	// Kernel-count sensitivity: VGG16's few huge kernels barely notice
	// eager dispatch (allow quantization noise around 1.0).
	vgg := EagerCell("VGG16", 32)
	if vgg.StaticSpeedX < 0.93 || vgg.StaticSpeedX > 1.15 {
		t.Errorf("VGG16 static speedup %.2fx, want ~1.0 (few kernels)", vgg.StaticSpeedX)
	}
	if dense.StaticSpeedX <= vgg.StaticSpeedX {
		t.Errorf("DenseNet121 eager penalty (%.2fx) not above VGG16 (%.2fx)",
			dense.StaticSpeedX, vgg.StaticSpeedX)
	}
}

func TestExperimentsAreDeterministic(t *testing.T) {
	a := Figure6Cell("ResNet50", "MobileNetV2", 20)
	b := Figure6Cell("ResNet50", "MobileNetV2", 20)
	if a != b {
		t.Fatalf("identical experiment runs diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	t1a, t1b := Table1(), Table1()
	for i := range t1a {
		if t1a[i] != t1b[i] {
			t.Fatalf("Table1 rows diverged: %+v vs %+v", t1a[i], t1b[i])
		}
	}
}
