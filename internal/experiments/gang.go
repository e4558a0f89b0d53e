package experiments

import (
	"time"

	"switchflow"
	"switchflow/internal/cluster"
	"switchflow/internal/device"
	"switchflow/internal/harness"
	"switchflow/internal/obs"
	"switchflow/internal/scenario"
	"switchflow/internal/workload"
)

// GangRow is one arm of the gang-scheduling comparison.
//
//   - "nvlink" / "straddle": a two-replica VGG16 gang on the NVLink
//     testbed, bound to the NVLink island {0,1} vs straddling the PCIe
//     switch {1,2}. Identical GPUs and shares; only the fabric under
//     the all-reduce ring differs, so the iteration gap is the modeled
//     sync cost made visible.
//   - "gang": three two-replica gangs contend for one 4-GPU NVLink
//     node. All-or-nothing placement admits two whole gangs onto the
//     two islands and queues the third whole — PartialGangs must be 0.
//   - "independent": the same six replicas submitted as six independent
//     trainers. Everything places (they stack freely), nothing syncs,
//     and nothing waits — the contrast arm for gang semantics.
//   - "preempt": a gang on {0,1} loses gpu:0 to high-priority serving.
//     The whole gang suspends and resumes as one unit; Stragglers
//     counts lone replicas resumed against a displaced gang (must be
//     0).
type GangRow struct {
	Mode string
	// Iterations completed by the observed training job at the horizon.
	Iterations int
	// AllReduces counts priced sync barriers; MeanSyncMillis is their
	// mean modeled cost.
	AllReduces     int
	MeanSyncMillis float64
	// GangPlaces / GangPreempts / GangResumes count whole-gang events.
	GangPlaces   int
	GangPreempts int
	GangResumes  int
	// Stragglers counts per-replica resumes while the gang was
	// displaced; whole-gang semantics require 0.
	Stragglers int
	// QueuedWhole is how many gangs wait whole (no partial placement) at
	// the horizon; PartialGangs counts placement states that violate
	// all-or-nothing and must be 0.
	QueuedWhole  int
	PartialGangs int
}

const gangHorizon = 30 * time.Second

var gangModes = []string{"nvlink", "straddle", "gang", "independent", "preempt"}

// Gang runs the five arms on the parallel harness. Every arm owns its
// engine and machine, so serial and parallel runs are byte-identical.
func Gang() []GangRow {
	return harness.Map(gangModes, gangCell)
}

func gangCell(mode string) GangRow {
	switch mode {
	case "nvlink":
		return gangFabricArm(mode, []int{0, 1})
	case "straddle":
		return gangFabricArm(mode, []int{1, 2})
	case "gang":
		return gangContentionArm(true)
	case "independent":
		return gangContentionArm(false)
	case "preempt":
		return gangPreemptArm()
	default:
		panic("unknown gang mode " + mode)
	}
}

// gangFabricArm pins a two-replica VGG16 gang to the given GPU pair and
// measures how the fabric under the ring prices every step.
func gangFabricArm(mode string, gpus []int) GangRow {
	rec := obs.NewRecorder(0)
	res := runScenario(scenario.Scenario{
		Machine: "nvlink", DurationMillis: scenario.Millis(gangHorizon),
		Jobs: []scenario.JobRequest{{Name: "ddp", Model: "VGG16", Batch: 32, Train: true, Priority: 1,
			Gang: true, VNodes: gpus}},
	}, rec, obs.KindAllReduce)
	row := GangRow{Mode: mode, Iterations: res.Jobs[0].Iterations}
	row.AllReduces, row.MeanSyncMillis = syncStats(rec.Events())
	return row
}

// gangContentionArm submits three two-replica ResNet50 gangs — or the
// same six replicas as independent trainers — to one 4-GPU NVLink node.
func gangContentionArm(gang bool) GangRow {
	resnet := mustSpec("ResNet50")
	c := newCluster(1, 2, device.ClassV100, device.ClassV100, device.ClassV100, device.ClassV100)
	c.Record()
	var handles []*cluster.JobHandle
	if gang {
		for _, name := range []string{"g1", "g2", "g3"} {
			handles = append(handles, c.Submit(0, workload.Config{
				Name: name, Model: resnet, Batch: 32,
				Kind: workload.KindTraining, Priority: 1,
				Gang: true, Replicas: 2,
			}))
		}
	} else {
		for _, name := range []string{"w1", "w2", "w3", "w4", "w5", "w6"} {
			handles = append(handles, c.Submit(0, workload.Config{
				Name: name, Model: resnet, Batch: 16,
				Kind: workload.KindTraining, Priority: 1,
			}))
		}
	}
	c.RunUntil(gangHorizon)

	mode := "independent"
	if gang {
		mode = "gang"
	}
	row := GangRow{Mode: mode, QueuedWhole: c.GangQueued()}
	if handles[0].Placed {
		row.Iterations = handles[0].Job.Iterations
	}
	width := 2
	for _, h := range handles {
		partial := (h.Placed && gang && len(h.Where.GPUs) != width) ||
			(!h.Placed && h.Job != nil)
		if partial {
			row.PartialGangs++
		}
	}
	var syncs []obs.Event
	for _, e := range c.Events() {
		switch e.Kind {
		case obs.KindGangPlace:
			row.GangPlaces++
		case obs.KindAllReduce:
			syncs = append(syncs, e)
		}
	}
	row.AllReduces, row.MeanSyncMillis = syncStats(syncs)
	return row
}

// gangPreemptArm collocates high-priority serving onto one replica's GPU
// and checks the gang suspends and resumes as a unit, never a lone
// replica.
func gangPreemptArm() GangRow {
	sim := newSimulation(switchflow.NVLinkV100Server())
	rec := obs.NewRecorder(0)
	sim.EventBus().Subscribe(rec,
		obs.KindAllReduce, obs.KindGangPreempt, obs.KindGangResume, obs.KindResume)
	sched := must(sim.NewSwitchFlowScheduler())
	train := must(sched.AddJob(switchflow.JobSpec{
		Name: "ddp", Model: "ResNet50", Batch: 32, Train: true, Priority: 1,
		Gang:      true,
		Placement: switchflow.Placement{Device: 0, VNodes: []int{0, 1}},
	}))
	sim.RunUntil(5 * time.Second)
	must(sched.AddJob(switchflow.JobSpec{
		Name: "serve", Model: "MobileNetV2", Batch: 1, Priority: 9,
		ClosedLoop: true,
		Placement:  switchflow.Placement{Device: 0},
	}))
	sim.RunUntil(gangHorizon)

	row := GangRow{Mode: "preempt", Iterations: train.Iterations()}
	var syncs []obs.Event
	gangHeld := true
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindAllReduce:
			syncs = append(syncs, e)
		case obs.KindGangPreempt:
			row.GangPreempts++
			gangHeld = false
		case obs.KindGangResume:
			row.GangResumes++
			gangHeld = true
		case obs.KindResume:
			if e.Job == "ddp" && !gangHeld {
				row.Stragglers++
			}
		}
	}
	row.AllReduces, row.MeanSyncMillis = syncStats(syncs)
	return row
}

// syncStats reduces AllReduce events to a count and mean priced cost.
func syncStats(events []obs.Event) (int, float64) {
	var n int
	var total time.Duration
	for _, e := range events {
		if e.Kind != obs.KindAllReduce {
			continue
		}
		n++
		total += e.Dur
	}
	if n == 0 {
		return 0, 0
	}
	return n, (total / time.Duration(n)).Seconds() * 1e3
}
