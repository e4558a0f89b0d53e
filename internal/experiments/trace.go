package experiments

import (
	"io"
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/core"
	"switchflow/internal/harness"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
)

// ChromeTraceResult is one scheduler's canned co-run captured off the
// observability spine, ready for Chrome trace-event export.
type ChromeTraceResult struct {
	// Sched names the scheduler ("threaded" or "switchflow").
	Sched string
	// Events is the full recorded spine stream, in emission order.
	Events []obs.Event
	// Spans counts kernel spans; Preempts counts preemption decisions
	// (always zero under threaded TF — it has no preemption mechanism).
	Spans    int
	Preempts int
}

// traceKinds is what the canned trace records: kernel spans plus every
// scheduler decision. Executor-level OpSched/Launch dispatch is omitted —
// it multiplies the artifact size without adding to the Figure 2 story.
var traceKinds = []obs.Kind{
	obs.KindKernelSpan, obs.KindPreempt, obs.KindResume, obs.KindMigrate,
	obs.KindBatchFuse, obs.KindAdmit, obs.KindShed, obs.KindServe,
	obs.KindFaultInject, obs.KindJobLost, obs.KindCheckpoint,
	obs.KindRestore, obs.KindPlace,
}

// ChromeTrace runs the canned observability experiment: two ResNet50
// training jobs co-running on one V100, once under multi-threaded TF and
// once under SwitchFlow with a priority ladder (job 1 outranks job 0, so
// every iteration of the high-priority job preempts the other). The
// cells run through the parallel harness; each owns its engine and bus,
// so the recorded streams are identical in serial and parallel runs.
func ChromeTrace(window time.Duration) []ChromeTraceResult {
	cells := []string{"threaded", "switchflow"}
	return harness.Map(cells, func(sched string) ChromeTraceResult {
		const batch = 16
		eng := sim.NewEngine()
		machine := machineFor(eng, "V100")
		rec := obs.NewRecorder(0)
		machine.Bus().Subscribe(rec, traceKinds...)

		cfgA := trainConfig("resnet50-a", "ResNet50", batch, 0)
		cfgB := trainConfig("resnet50-b", "ResNet50", batch, 1)
		switch sched {
		case "threaded":
			s := baseline.New(eng, machine, baseline.ThreadedTF)
			mustAdd(s.AddJob(cfgA))
			mustAdd(s.AddJob(cfgB))
		case "switchflow":
			m := core.NewManager(eng, machine, core.Options{})
			mustAdd(m.AddJob(cfgA))
			mustAdd(m.AddJob(cfgB))
		}
		eng.RunUntil(window)

		res := ChromeTraceResult{Sched: sched, Events: rec.Events()}
		for _, e := range res.Events {
			switch e.Kind {
			case obs.KindKernelSpan:
				res.Spans++
			case obs.KindPreempt:
				res.Preempts++
			}
		}
		return res
	})
}

// WriteChromeTrace renders one result as Chrome trace-event JSON.
func (r ChromeTraceResult) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChrome(w, r.Events)
}

func mustAdd[T any](v T, err error) {
	if err != nil {
		panic(err)
	}
}
