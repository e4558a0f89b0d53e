package experiments

import (
	"time"

	"switchflow/internal/core"
	"switchflow/internal/sim"
)

// PreemptionResult reproduces the §5.2.3 analysis: the latency from a
// high-priority arrival to GPU grant (bounded by the in-flight kernel) and
// the state-transfer window during which the source GPU retains weights.
type PreemptionResult struct {
	TrainModel  string
	Preemptions int
	MeanGrantMS float64
	P95GrantMS  float64
	MaxGrantMS  float64
	StateMB     float64 // retained during migration (Table 1 column)
	TransferMS  float64
	ServedP95MS float64
}

// PreemptionOverhead collocates a BS=1 inference stream with a background
// training job on one V100 and reports preemption-grant latencies over the
// given number of requests.
func PreemptionOverhead(trainModel string, requests int) PreemptionResult {
	eng := sim.NewEngine()
	machine := machineFor(eng, "V100")
	m := core.NewManager(eng, machine, core.Options{})
	run := collocate(eng, m.AddJob, trainConfig("train", trainModel, 32, 1),
		serveConfig("serve", "ResNet50", 1, 2), requests, time.Hour)

	spec := mustSpec(trainModel)
	peerMS := machine.Peer().TransferTime(spec.StatefulBytes(), spec.WeightVars())
	return PreemptionResult{
		TrainModel:  trainModel,
		Preemptions: m.Preemptions,
		MeanGrantMS: m.PreemptionLatencies.Mean().Seconds() * 1e3,
		P95GrantMS:  m.PreemptionLatencies.Percentile(95).Seconds() * 1e3,
		MaxGrantMS:  m.PreemptionLatencies.Max().Seconds() * 1e3,
		StateMB:     float64(spec.StatefulBytes()) / (1 << 20),
		TransferMS:  peerMS.Seconds() * 1e3,
		ServedP95MS: run.serve.Latencies.Percentile(95).Seconds() * 1e3,
	}
}
