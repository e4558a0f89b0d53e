package experiments

import (
	"time"

	"switchflow/internal/device"
	"switchflow/internal/harness"
	"switchflow/internal/workload"
)

// ServingArm is one side of a serving-sweep cell: the same offered load
// with dynamic batching either enabled or disabled. Admission control
// runs in both arms, so the comparison isolates batching itself.
type ServingArm struct {
	GoodputPS float64 // SLO-met requests per second of the window
	P95MS     float64
	P99MS     float64
	Offered   int
	Served    int
	Shed      int
	// AttainPct is the SLO-met fraction of the OFFERED load — a shed
	// request is a missed SLO from the client's perspective, so shedding
	// keeps the served tail clean but still costs attainment here.
	AttainPct float64
	MeanBatch float64
}

// ServingRow is one point of the SLO-aware serving sweep: a Poisson
// stream of BS=1 ResNet50 requests against one V100 under SwitchFlow.
type ServingRow struct {
	RatePerSec float64
	Batched    ServingArm
	Unbatched  ServingArm
}

// Serving sweep parameters: the SLO and batching policy every cell uses,
// and the offered loads. The top rates exceed what single-request
// launches sustain, which is where batching has to earn its keep.
const (
	servingSLO       = 200 * time.Millisecond
	servingMaxBatch  = 8
	servingBatchWait = 2 * time.Millisecond
)

var defaultServingRates = []float64{25, 50, 100, 200, 400}

// ServingSweep measures goodput and tail latency across offered loads,
// batching on vs off, on the parallel harness in rate order.
func ServingSweep(window time.Duration) []ServingRow {
	return harness.Map(defaultServingRates, func(rate float64) ServingRow {
		return ServingPoint(rate, window)
	})
}

// ServingPoint measures one offered load under both arms. Both arms see
// the identical arrival process (same seed, same mean), so every
// difference is the scheduler's doing.
func ServingPoint(ratePerSec float64, window time.Duration) ServingRow {
	return ServingRow{
		RatePerSec: ratePerSec,
		Batched:    servingOne(ratePerSec, window, true),
		Unbatched:  servingOne(ratePerSec, window, false),
	}
}

func servingOne(ratePerSec float64, window time.Duration, batched bool) ServingArm {
	w := onGPU("V100", scheduler{switchFlow: true})
	// The unbatched arm launches one request per compute; admission
	// control still applies.
	maxBatch, batchWait := servingMaxBatch, servingBatchWait
	if !batched {
		maxBatch, batchWait = 0, 0
	}
	job := must(w.add(workload.Config{
		Name:            "serve",
		Model:           mustSpec("ResNet50"),
		Batch:           1,
		Kind:            workload.KindServing,
		Priority:        2,
		Device:          device.GPUID(0),
		ArrivalEvery:    time.Duration(float64(time.Second) / ratePerSec),
		PoissonArrivals: true,
		ArrivalSeed:     11,
		PerImageCPU:     10 * time.Millisecond,
		SLO:             servingSLO,
		MaxBatch:        maxBatch,
		BatchWait:       batchWait,
	}))
	w.eng.RunUntil(window)
	// Stop the stream and drain, so every admitted request resolves and
	// the accounting closes: Served + Shed == Offered.
	job.StopArrivals()
	w.eng.Run()
	if job.Crashed() {
		panic(job.CrashErr)
	}
	st := job.ServingStats()
	arm := ServingArm{
		GoodputPS: float64(st.SLOMet) / window.Seconds(),
		P95MS:     job.Latencies.Percentile(95).Seconds() * 1e3,
		P99MS:     job.Latencies.Percentile(99).Seconds() * 1e3,
		Offered:   st.Offered,
		Served:    st.Served,
		Shed:      st.Shed,
		MeanBatch: st.MeanBatch(),
	}
	if st.Offered > 0 {
		arm.AttainPct = 100 * float64(st.SLOMet) / float64(st.Offered)
	}
	return arm
}
