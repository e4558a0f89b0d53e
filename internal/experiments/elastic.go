package experiments

import (
	"time"

	"switchflow"
	"switchflow/internal/harness"
	"switchflow/internal/obs"
)

// ElasticRow is one arm of the elastic-recovery comparison: a training
// job on the two-GPU server whose home GPU is taken away mid-run.
//
//   - "elastic":  SwitchFlow with virtual-node placement. The job grows
//     from one to two virtual nodes at the quarter mark, then gpu:0 is
//     drained at the half mark and the job rebinds onto the survivor.
//     It keeps its optimizer state — Restarts and IterationsLost stay 0.
//   - "restart":  SwitchFlow with the PR-2 checkpoint/restart path: a
//     legacy (non-elastic) job with a fallback device loses gpu:0 to a
//     fault, rolls back to its last host checkpoint, and restarts.
//   - "threaded" / "timeslice": process-model baselines. They can
//     neither drain nor migrate, so losing gpu:0 loses the job.
type ElasticRow struct {
	Mode      string
	Scheduler string
	// Iterations completed by the training job at the horizon.
	Iterations int
	// Alive reports whether the job survived the device loss.
	Alive bool
	// Restarts / IterationsLost are the recovery costs (zero for the
	// elastic arm, positive for restart-based recovery).
	Restarts       int
	IterationsLost int
	// Grows / Rebinds count KindResize("grow") and KindRebind events.
	Grows   int
	Rebinds int
	// Binding is the job's final virtual-node binding ("" for
	// non-elastic arms).
	Binding string
}

const (
	elasticHorizon = 60 * time.Second
	elasticGrowAt  = elasticHorizon / 4
	elasticLossAt  = elasticHorizon / 2
	elasticCkpt    = 5 * time.Second
)

var elasticModes = []string{"elastic", "restart", "threaded", "timeslice"}

// Elastic runs the four arms on the parallel harness. Every arm owns its
// engine and machine, so serial and parallel runs are byte-identical.
func Elastic() []ElasticRow {
	return harness.Map(elasticModes, elasticCell)
}

func elasticCell(mode string) ElasticRow {
	switch mode {
	case "elastic":
		return elasticArm()
	case "restart":
		return lossArm(mode, switchflow.PolicySwitchFlow)
	case "threaded":
		return lossArm(mode, switchflow.PolicyThreadedTF)
	case "timeslice":
		return lossArm(mode, switchflow.PolicyTimeSlice)
	default:
		panic("unknown elastic mode " + mode)
	}
}

// elasticArm: grow 1→2 virtual nodes, then drain gpu:0. The rebind
// reuses the replica already resident on gpu:1, so recovery is free.
func elasticArm() ElasticRow {
	sim := newSimulation(switchflow.TwoGPUServer())
	rec := obs.NewRecorder(0)
	sim.EventBus().Subscribe(rec, obs.KindRebind, obs.KindResize)
	sched := must(sim.NewSwitchFlowScheduler())
	train := must(sched.AddJob(switchflow.JobSpec{
		Name: "train", Model: "ResNet50", Batch: 16, Train: true,
		Priority:  1,
		Placement: switchflow.Placement{Device: 0, VNodes: []int{0}},
	}))
	sim.RunUntil(elasticGrowAt)
	if err := sched.Grow(train, 2); err != nil {
		panic(err)
	}
	sim.RunUntil(elasticLossAt)
	if err := sched.Drain(0); err != nil {
		panic(err)
	}
	sim.RunUntil(elasticHorizon)

	row := ElasticRow{
		Mode:       "elastic",
		Scheduler:  sched.Name(),
		Iterations: train.Iterations(),
		Alive:      !train.Crashed(),
		Restarts:   train.Restarts(),
		Binding:    train.Binding(),
	}
	for _, e := range rec.Events() {
		switch {
		case e.Kind == obs.KindRebind:
			row.Rebinds++
		case e.Kind == obs.KindResize && e.Name == "grow":
			row.Grows++
		}
	}
	return row
}

// lossArm loses gpu:0 to a fault at the half mark. Under SwitchFlow
// this is the PR-2 recovery path: the job migrates to its fallback and
// restarts from the last host checkpoint, paying rollback in lost
// iterations. The process-model baselines cannot move a job, so losing
// its device loses the job.
func lossArm(mode string, policy switchflow.Policy) ElasticRow {
	sim := newSimulation(switchflow.TwoGPUServer())
	plan := switchflow.NewFaultPlan().LoseGPU(elasticLossAt, 0)
	opts := []switchflow.Option{switchflow.WithFaultPlan(plan)}
	placement := switchflow.Placement{Device: 0}
	if policy == switchflow.PolicySwitchFlow {
		opts = append(opts, switchflow.WithCheckpointEvery(elasticCkpt))
		placement.Fallbacks = []int{1}
	}
	sched := must(sim.NewScheduler(policy, opts...))
	train := must(sched.AddJob(switchflow.JobSpec{
		Name: "train", Model: "ResNet50", Batch: 16, Train: true,
		Priority: 1, Placement: placement,
	}))
	sim.RunUntil(elasticHorizon)
	return ElasticRow{
		Mode:           mode,
		Scheduler:      sched.Name(),
		Iterations:     train.Iterations(),
		Alive:          !train.Crashed(),
		Restarts:       train.Restarts(),
		IterationsLost: sched.FaultStats().IterationsLost,
	}
}
