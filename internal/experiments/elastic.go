package experiments

import (
	"time"

	"switchflow/internal/harness"
	"switchflow/internal/obs"
	"switchflow/internal/scenario"
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
		return lossArm(mode, "switchflow")
	case "threaded", "timeslice":
		return lossArm(mode, mode)
	default:
		panic("unknown elastic mode " + mode)
	}
}

// elasticTrainer is the arms' one training job, on gpu:0.
var elasticTrainer = scenario.JobRequest{Name: "train", Model: "ResNet50", Batch: 16, Train: true, Priority: 1}

// elasticArm: grow 1→2 virtual nodes, then drain gpu:0. The rebind
// reuses the replica already resident on gpu:1, so recovery is free.
func elasticArm() ElasticRow {
	train := elasticTrainer
	train.VNodes = []int{0}
	rec := obs.NewRecorder(0)
	res := runScenario(scenario.Scenario{
		Machine: "2gpu", DurationMillis: scenario.Millis(elasticHorizon),
		Jobs: []scenario.JobRequest{train},
		Ops: []scenario.OpRequest{
			{AtMillis: scenario.Millis(elasticGrowAt), Op: "resize", Job: train.Name, VNodes: 2},
			{AtMillis: scenario.Millis(elasticLossAt), Op: "drain", GPU: 0},
		},
	}, rec, obs.KindRebind, obs.KindResize)

	job := res.Jobs[0]
	row := ElasticRow{
		Mode:       "elastic",
		Scheduler:  res.Scheduler,
		Iterations: job.Iterations,
		Alive:      !job.Crashed,
		Restarts:   job.Restarts,
		Binding:    job.Binding,
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
// its device loses the job. The arm has one job, so the fault counters
// are its own.
func lossArm(mode, sched string) ElasticRow {
	train := elasticTrainer
	faults := &scenario.FaultsRequest{
		LoseGPUs: []scenario.LoseGPURequest{{GPU: 0, AtMillis: scenario.Millis(elasticLossAt)}},
	}
	if sched == "switchflow" {
		faults.CheckpointEveryMillis = scenario.Millis(elasticCkpt)
		train.FallbackGPUs = []int{1}
	}
	res := runScenario(scenario.Scenario{
		Machine: "2gpu", Scheduler: sched, DurationMillis: scenario.Millis(elasticHorizon),
		Jobs: []scenario.JobRequest{train}, Faults: faults,
	}, nil)
	return ElasticRow{
		Mode:           mode,
		Scheduler:      res.Scheduler,
		Iterations:     res.Jobs[0].Iterations,
		Alive:          !res.Jobs[0].Crashed,
		Restarts:       res.Faults.Restarts,
		IterationsLost: res.Faults.IterationsLost,
	}
}
