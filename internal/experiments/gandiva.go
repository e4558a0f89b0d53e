package experiments

import (
	"time"

	"switchflow/internal/core"
	"switchflow/internal/harness"
)

// GandivaRow compares preemption mechanisms (§6): SwitchFlow's
// abort-and-resume against Gandiva-style checkpoint suspend-resume, for a
// BS=1 inference stream preempting a training job on a V100.
type GandivaRow struct {
	TrainModel string
	// SwitchFlow's numbers.
	SFP95MS      float64
	SFGrantP95MS float64
	SFTrainPS    float64 // training steps/s while serving
	// Checkpoint suspend-resume's numbers.
	CkptP95MS      float64
	CkptGrantP95MS float64
	CkptTrainPS    float64
}

// gandivaModels spans light to heavy checkpoint sizes (Table 1).
var gandivaModels = []string{"MobileNetV2", "ResNet50", "InceptionV3", "VGG16"}

// Gandiva runs the comparison for each background model, on the
// parallel harness in declaration order.
func Gandiva(requests int) []GandivaRow {
	return harness.Map(gandivaModels, func(model string) GandivaRow {
		return GandivaCell(model, requests)
	})
}

// GandivaCell runs one background model under both mechanisms.
func GandivaCell(trainModel string, requests int) GandivaRow {
	sfP95, sfGrant, sfTrain := gandivaOne(trainModel, requests, core.Options{})
	ckP95, ckGrant, ckTrain := gandivaOne(trainModel, requests, core.Options{CheckpointPreemption: true})
	return GandivaRow{
		TrainModel:     trainModel,
		SFP95MS:        sfP95,
		SFGrantP95MS:   sfGrant,
		SFTrainPS:      sfTrain,
		CkptP95MS:      ckP95,
		CkptGrantP95MS: ckGrant,
		CkptTrainPS:    ckTrain,
	}
}

func gandivaOne(trainModel string, requests int, opts core.Options) (p95, grantP95, trainPS float64) {
	w := onGPU("V100", scheduler{switchFlow: true, opts: opts})
	run := collocate(w, trainConfig("train", trainModel, 32, 1),
		serveConfig("serve", "ResNet50", 1, 2), requests, time.Hour)
	return run.serve.Latencies.Percentile(95).Seconds() * 1e3,
		w.sf.PreemptionLatencies.Percentile(95).Seconds() * 1e3,
		run.trainRate(1)
}
