package main

import (
	"fmt"
	"os"
	"time"

	"switchflow/internal/control"
	"switchflow/internal/harness"
	"switchflow/internal/obs"
	"switchflow/internal/trace"
)

// traceCell is one scheduler's canned co-run captured off the
// observability spine, ready for Chrome trace-event export.
type traceCell struct {
	// Sched names the scheduler ("threaded" or "switchflow").
	Sched string
	// Events is the recorded spine stream, in emission order.
	Events []obs.Event
	// Spans counts kernel spans; Preempts counts preemption decisions
	// (always zero under threaded TF — it has no preemption mechanism).
	Spans    int
	Preempts int
}

// chromeTrace runs the canned observability experiment: two ResNet50
// training jobs co-running on GPU 0 of the V100 server, once under
// multi-threaded TF and once under SwitchFlow with a priority ladder (job
// 1 outranks job 0, so every iteration of the high-priority job preempts
// the other). Each cell is a control.Scenario recorded through
// RunScenario's bus hook, as swtrace records its runs. The cells run
// through the parallel harness; each owns its engine and bus, so the
// recorded streams are identical in serial and parallel runs.
func chromeTrace(window time.Duration) []traceCell {
	return harness.Map([]string{"threaded", "switchflow"}, func(sched string) traceCell {
		sc := control.Scenario{Machine: "V100", Scheduler: sched, DurationMillis: control.Millis(window),
			Jobs: []control.JobRequest{
				{Name: "resnet50-a", Model: "ResNet50", Batch: 16, Train: true, Priority: 0},
				{Name: "resnet50-b", Model: "ResNet50", Batch: 16, Train: true, Priority: 1},
			}}
		rec := obs.NewRecorder(0)
		if _, err := control.RunScenario(sc, func(bus *obs.Bus) { bus.Subscribe(rec, trace.Kinds...) }); err != nil {
			panic(err)
		}
		cell := traceCell{Sched: sched, Events: rec.Events()}
		for _, e := range cell.Events {
			switch e.Kind {
			case obs.KindKernelSpan:
				cell.Spans++
			case obs.KindPreempt:
				cell.Preempts++
			}
		}
		return cell
	})
}

// writeTrace runs the canned observability experiment and writes the
// switchflow cell's Chrome trace-event JSON to path. The export is
// byte-identical regardless of -parallel.
func writeTrace(path string) error {
	cells := chromeTrace(5 * time.Second)
	for _, c := range cells {
		fmt.Printf("trace: %-10s %6d kernel spans, %4d preemptions\n", c.Sched, c.Spans, c.Preempts)
	}
	for _, c := range cells {
		if c.Sched != "switchflow" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := obs.WriteChrome(f, c.Events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s (%d events, switchflow cell)\n", path, len(c.Events))
		return nil
	}
	return fmt.Errorf("no switchflow cell in trace results")
}
