package experiments

import (
	"fmt"
	"testing"
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/core"
	"switchflow/internal/fault"
	"switchflow/internal/obs"
	"switchflow/internal/workload"
)

// Session-based time slicing is SwitchFlow with invariant 2 off: a job's
// input runs only while it holds the GPU. The baseline policy and core's
// coupled path implement that policy twice, and both stay: the ablation
// needs core's path, which preempts under unequal priorities, and the
// chaos and elastic sweeps need the baseline's lose-on-fault behaviour.
// The oracle below requires the two to emit the same bus stream, event
// for event, wherever the policy is the same, and the exception table
// pins each measured place where it is not.

// The oracle's horizon and its decoder's choices.
var (
	oracleHorizon = 10 * time.Second
	oracleGPUs    = []string{"V100", "RTX 2080 Ti", "GTX 1080 Ti", "Jetson TX2"}
	oracleModels  = []string{"ResNet50", "VGG16", "MobileNetV2", "InceptionV3", "DenseNet121"}
	// oracleShapes are training at batch 16, 32 and 64, saturated
	// inference at batch 8 and closed-loop serving at batch 1, all at
	// priority 1.
	oracleShapes = []func(name, model string) workload.Config{
		func(name, model string) workload.Config { return trainConfig(name, model, 16, 1) },
		func(name, model string) workload.Config { return trainConfig(name, model, 32, 1) },
		func(name, model string) workload.Config { return trainConfig(name, model, 64, 1) },
		func(name, model string) workload.Config { return saturatedConfig(name, model, 8) },
		func(name, model string) workload.Config { return serveConfig(name, model, 1, 1) },
	}
	timeSlice   = scheduler{policy: baseline.TimeSlice}
	coupledCore = scheduler{switchFlow: true, opts: core.Options{DisableFreeCPUExecutors: true}}
)

// oracleCase is one scenario for both runtimes: jobs admitted in order at
// time zero on gpu:0 of the named paper GPU, under an optional fault plan,
// run to the oracle's horizon.
type oracleCase struct {
	gpu  string
	jobs []workload.Config
	plan fault.Plan
}

// decodeOracleCase reads the GPU from data[0], the job count (1–3) from
// data[1], then a shape and a model byte per job; missing bytes read as
// zero.
func decodeOracleCase(data []byte) oracleCase {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	c := oracleCase{gpu: oracleGPUs[at(0)%len(oracleGPUs)]}
	for i := range 1 + at(1)%3 {
		shape := oracleShapes[at(2+2*i)%len(oracleShapes)]
		model := oracleModels[at(3+2*i)%len(oracleModels)]
		c.jobs = append(c.jobs, shape(fmt.Sprintf("j%d", i), model))
	}
	return c
}

// run records c's bus stream under s through the observe hook, with a
// refusal mark for each job admission refused.
func (c oracleCase) run(s scheduler) []obs.Event {
	rec := obs.NewRecorder(0)
	defer func(prev func(...*obs.Bus)) { observe = prev }(observe)
	observe = func(buses ...*obs.Bus) { buses[0].Subscribe(rec) }
	w := onGPU(c.gpu, s)
	if len(c.plan.Events) > 0 {
		in := fault.NewInjector(w.eng, w.machine, c.plan)
		in.Attach(w.faults)
		in.Arm()
	}
	for _, cfg := range c.jobs {
		if _, err := w.add(cfg); err != nil {
			rec.Observe(obs.Event{Job: cfg.Name, Name: "refused"})
		}
	}
	w.eng.RunUntil(oracleHorizon)
	return rec.Events()
}

// firstDivergence returns the index of the first event at which a and b
// differ, or -1 when they are equal.
func firstDivergence(a, b []obs.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// eventAt is the event at i, or a zero event outside the stream.
func eventAt(events []obs.Event, i int) obs.Event {
	if i >= 0 && i < len(events) {
		return events[i]
	}
	return obs.Event{}
}

// checkTimeSliceMatchesCoupledCore fails t with the first divergent
// event when c's two streams differ.
func checkTimeSliceMatchesCoupledCore(t *testing.T, c oracleCase) {
	t.Helper()
	base, coupled := c.run(timeSlice), c.run(coupledCore)
	if i := firstDivergence(base, coupled); i >= 0 {
		t.Fatalf("%s, %d jobs: streams of %d and %d events diverge at event %d:\n  time slice:   %+v\n  coupled core: %+v",
			c.gpu, len(c.jobs), len(base), len(coupled), i, eventAt(base, i), eventAt(coupled, i))
	}
}

// FuzzTimeSliceMatchesCoupledCore checks that session-based time slicing
// and SwitchFlow with invariant 2 off emit the same bus stream for 1–3
// jobs of one priority, with no faults and no open-loop arrivals.
func FuzzTimeSliceMatchesCoupledCore(f *testing.F) {
	// Each GPU with each shape and model once, alone and in pairs and
	// triples that mix training, saturated and serving jobs.
	f.Add([]byte{0, 0, 1, 0})             // V100, ResNet50 training at 32
	f.Add([]byte{3, 0, 1, 0})             // Jetson TX2, the same job
	f.Add([]byte{1, 1, 0, 2, 4, 1})       // RTX 2080 Ti, MobileNetV2 trainer beside VGG16 serving
	f.Add([]byte{2, 1, 3, 3, 3, 4})       // GTX 1080 Ti, two saturated servers
	f.Add([]byte{0, 2, 2, 1, 3, 2, 4, 3}) // V100, VGG16 at 64, saturated MobileNetV2, InceptionV3 serving
	f.Add([]byte{3, 2, 4, 4, 0, 2, 3, 0}) // Jetson TX2, serving, training and saturated
	f.Add([]byte{2, 1, 1, 4, 2, 0})       // GTX 1080 Ti, DenseNet121 at 32 beside ResNet50 at 64
	// DenseNet121 training at 64 runs out of memory on a GTX 1080 Ti, so
	// both runtimes lose it, for the same reason.
	f.Add([]byte{2, 0, 2, 4})
	// testdata/fuzz adds the fuzzer's findings: a VGG16 trainer at 64
	// lost on a Jetson TX2 must leave its memory to the jobs after it.
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTimeSliceMatchesCoupledCore(t, decodeOracleCase(data))
	})
}

// TestTimeSliceOracleExceptions pins each measured case outside the
// oracle's domain, where the two time-slicing paths part on purpose. A
// row runs its case and requires the recorded first divergence, so a
// row goes stale, and fails, when the two paths change.
func TestTimeSliceOracleExceptions(t *testing.T) {
	openLoop := serveConfig("serve", "ResNet50", 1, 2)
	openLoop.ClosedLoop = false
	openLoop.ArrivalEvery = 20 * time.Millisecond
	openLoop.PoissonArrivals = true
	openLoop.SLO = 150 * time.Millisecond
	openLoop.MaxBatch = 4
	var transient fault.Plan
	transient.Transient(2*time.Second, 0)
	for _, row := range []struct {
		name, reason string
		c            oracleCase
		at           int      // index of the first divergent event
		base, core   obs.Kind // its kind under time slicing and under core
	}{
		{
			name:   "unequal priorities",
			reason: "core preempts the low-priority session at once; time slicing waits out the session and round-robins",
			c: oracleCase{gpu: "V100", jobs: []workload.Config{
				trainConfig("low", "ResNet50", 32, 1), serveConfig("high", "MobileNetV2", 1, 2),
			}},
			at: 33, base: obs.KindOpSched, core: obs.KindPreempt,
		},
		{
			name:   "open-loop serving",
			reason: "each request of a higher-priority open-loop stream makes core preempt the session in flight; time slicing serves the stream only at session boundaries. At one priority the two matched in 96 of 100 open-loop cases, and the other 4 were the JobLost reason text",
			c: oracleCase{gpu: "V100", jobs: []workload.Config{
				trainConfig("train", "VGG16", 32, 1), openLoop,
			}},
			at: 33, base: obs.KindAdmit, core: obs.KindPreempt,
		},
		{
			name:   "fault plan",
			reason: "the baseline loses the job a transient fault strikes; core restarts it",
			c: oracleCase{gpu: "V100", jobs: []workload.Config{
				trainConfig("a", "ResNet50", 32, 1), trainConfig("b", "MobileNetV2", 32, 1),
			}, plan: transient},
			at: 12233, base: obs.KindJobLost, core: obs.KindOpSched,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			base, coupled := row.c.run(timeSlice), row.c.run(coupledCore)
			i := firstDivergence(base, coupled)
			b, c := eventAt(base, i), eventAt(coupled, i)
			if i != row.at || b.Kind != row.base || c.Kind != row.core {
				t.Errorf("first divergence at event %d (time slice %v, core %v), recorded %d (%v, %v); %s\n  time slice:   %+v\n  coupled core: %+v",
					i, b.Kind, c.Kind, row.at, row.base, row.core, row.reason, b, c)
			}
		})
	}
}
