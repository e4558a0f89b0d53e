package experiments

import (
	"time"

	"switchflow/internal/harness"
	"switchflow/internal/sim"
)

// Figure6Row is one bar pair of Figure 6: the 95th-percentile latency of a
// high-priority BS=1 inference stream collocated with a background
// training job, under multi-threaded TF and under SwitchFlow.
type Figure6Row struct {
	TrainModel string
	InferModel string
	TFP95MS    float64
	SFP95MS    float64
	Speedup    float64 // TF / SwitchFlow
}

// figure6InferModels is the x-axis of subfigures (a)-(c).
var figure6InferModels = []string{
	"ResNet50", "VGG16", "VGG19", "DenseNet121", "DenseNet169",
	"InceptionV3", "MobileNetV2", "NASNetMobile",
}

// figure6TrainBackgrounds are subfigures (a)-(c).
var figure6TrainBackgrounds = []string{"MobileNetV2", "ResNet50", "VGG16"}

// figure6NMTTrainJobs is subfigure (d): NMT inference against CNN
// training jobs.
var figure6NMTTrainJobs = []string{
	"ResNet50", "VGG16", "VGG19", "DenseNet121", "InceptionV3", "MobileNetV2",
}

// Figure6 measures requests tail latency per (training, inference) pair.
// requests is the number of completed inference requests sampled per cell
// (after warmup). Cells run on the parallel harness in the serial sweep
// order: subfigures (a)-(c) background-major, then the NMT column (d).
func Figure6(requests int) []Figure6Row {
	type cell struct{ train, infer string }
	var cells []cell
	for _, bg := range figure6TrainBackgrounds {
		for _, infer := range figure6InferModels {
			cells = append(cells, cell{bg, infer})
		}
	}
	for _, bg := range figure6NMTTrainJobs {
		cells = append(cells, cell{bg, "NMT"})
	}
	return harness.Map(cells, func(c cell) Figure6Row {
		return Figure6Cell(c.train, c.infer, requests)
	})
}

// Figure6Cell runs one (training, inference) pair.
func Figure6Cell(trainModel, inferModel string, requests int) Figure6Row {
	tf := figure6P95(trainModel, inferModel, requests, false)
	sf := figure6P95(trainModel, inferModel, requests, true)
	row := Figure6Row{
		TrainModel: trainModel,
		InferModel: inferModel,
		TFP95MS:    tf,
		SFP95MS:    sf,
	}
	if sf > 0 {
		row.Speedup = tf / sf
	}
	return row
}

// figure6P95 collocates the pair under threaded TF or SwitchFlow and
// returns the inference stream's p95 latency in ms.
func figure6P95(trainModel, inferModel string, requests int, switchFlow bool) float64 {
	eng := sim.NewEngine()
	add := tfOrSwitchFlow(eng, machineFor(eng, "V100"), switchFlow)
	run := collocate(eng, add, trainConfig("train", trainModel, 32, 1),
		serveConfig("serve", inferModel, 1, 2), requests, 30*time.Minute)
	return run.serve.Latencies.Percentile(95).Seconds() * 1e3
}
