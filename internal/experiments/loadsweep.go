package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/harness"
	"switchflow/internal/sim"
)

// LoadRow is one point of the open-loop load sweep: a Poisson stream of
// BS=1 ResNet50 inference requests (§3.1's "unpredictable and stochastic"
// arrivals) collocated with VGG16 training on a V100, under threaded TF
// and under SwitchFlow.
type LoadRow struct {
	RatePerSec float64
	TFP95MS    float64
	TFP99MS    float64
	SFP95MS    float64
	SFP99MS    float64
}

// defaultLoadRates spans light load to beyond the TF baseline's
// saturation point.
var defaultLoadRates = []float64{1, 2, 5, 10, 20, 40}

// LoadSweep measures tail latency across arrival rates, on the
// parallel harness in rate order.
func LoadSweep(requests int) []LoadRow {
	return harness.Map(defaultLoadRates, func(rate float64) LoadRow {
		return LoadPoint(rate, requests)
	})
}

// LoadPoint measures one arrival rate under both schedulers.
func LoadPoint(ratePerSec float64, requests int) LoadRow {
	tf95, tf99 := loadOne(ratePerSec, requests, false)
	sf95, sf99 := loadOne(ratePerSec, requests, true)
	return LoadRow{
		RatePerSec: ratePerSec,
		TFP95MS:    tf95,
		TFP99MS:    tf99,
		SFP95MS:    sf95,
		SFP99MS:    sf99,
	}
}

func loadOne(ratePerSec float64, requests int, switchFlow bool) (p95, p99 float64) {
	serveCfg := serveConfig("serve", "ResNet50", 1, 2)
	serveCfg.ClosedLoop = false
	serveCfg.PoissonArrivals = true
	serveCfg.ArrivalSeed = 7
	serveCfg.ArrivalEvery = sim.Nanos(float64(time.Second) / ratePerSec)
	// A deep prefetch window lets queued requests pipeline.
	serveCfg.PrefetchDepth = 4

	w := onGPU("V100", scheduler{switchFlow: switchFlow, policy: baseline.ThreadedTF})
	serve := collocate(w, trainConfig("train", "VGG16", 32, 1), serveCfg, requests, 30*time.Minute).serve
	return serve.Latencies.Percentile(95).Seconds() * 1e3,
		serve.Latencies.Percentile(99).Seconds() * 1e3
}
