package experiments

import (
	"time"

	"switchflow"
	"switchflow/internal/baseline"
	"switchflow/internal/cluster"
	"switchflow/internal/core"
	"switchflow/internal/device"
	"switchflow/internal/fault"
	"switchflow/internal/obs"
	"switchflow/internal/scenario"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

// observe, when set, receives every world's event buses exactly once,
// before the world has a scheduler or a job: the machine's bus for a
// single-machine, scenario or facade world, every node's bus in node
// order for a cluster world. It is nil in production; tests set it to audit every
// world of the sweep.
var observe func(buses ...*obs.Bus)

// A scheduler names what runs a world's jobs: SwitchFlow with opts when
// switchFlow is set, else the baseline policy.
type scheduler struct {
	switchFlow bool
	opts       core.Options
	policy     baseline.Policy
}

// world is one single-machine simulation: its engine, its machine, and
// the AddJob and fault handler of the one scheduler it runs. sf is that
// scheduler under SwitchFlow and nil under a baseline policy.
type world struct {
	eng     *sim.Engine
	machine *device.Machine
	add     func(workload.Config) (*workload.Job, error)
	faults  fault.Handler
	sf      *core.Manager
}

// newWorld builds an engine and a machine of cpu and gpus on it, hands
// the machine's bus to observe, then builds the scheduler s names.
func newWorld(s scheduler, cpu device.CPUClass, gpus ...device.GPUClass) *world {
	eng := sim.NewEngine()
	w := &world{eng: eng, machine: device.NewMachine(eng, cpu, gpus...)}
	if observe != nil {
		observe(w.machine.Bus())
	}
	if s.switchFlow {
		w.sf = core.NewManager(eng, w.machine, s.opts)
		w.add, w.faults = w.sf.AddJob, w.sf
	} else {
		b := baseline.New(eng, w.machine, s.policy)
		w.add, w.faults = b.AddJob, b
	}
	return w
}

// onGPU builds a world on the named paper GPU beside the CPU it sits
// with in the paper's testbeds.
func onGPU(gpu string, s scheduler) *world {
	class, cpu := paperGPU(gpu)
	return newWorld(s, cpu, class)
}

// runUntil steps the world until cond holds or the virtual horizon
// passes. A world that runs out of events idles to the horizon.
func (w *world) runUntil(horizon time.Duration, cond func() bool) {
	for !cond() && w.eng.Now() < horizon {
		if !w.eng.Step() {
			w.eng.RunUntil(horizon)
			return
		}
	}
}

// imgPerSec runs the world to from, then for measure more, and returns
// each job's throughput over the measured span in images per second: 0
// for a job that has crashed by its end.
func (w *world) imgPerSec(from, measure time.Duration, jobs ...*workload.Job) []float64 {
	w.eng.RunUntil(from)
	start := make([]int, len(jobs))
	for i, j := range jobs {
		start[i] = j.Iterations
	}
	w.eng.RunUntil(from + measure)
	rates := make([]float64, len(jobs))
	for i, j := range jobs {
		if !j.Crashed() {
			rates[i] = float64((j.Iterations-start[i])*j.Cfg.Batch) / measure.Seconds()
		}
	}
	return rates
}

// newSimulation builds a world through the public facade and hands its
// bus to observe before any scheduler exists, for a world no scenario
// describes (a job added mid-run); the rest go through runScenario.
func newSimulation(spec switchflow.MachineSpec) *switchflow.Simulation {
	s := switchflow.NewSimulation(spec)
	if observe != nil {
		observe(s.EventBus())
	}
	return s
}

// runScenario runs sc through the scenario runner, which hands the
// world's bus to observe and then subscribes rec, when non-nil, to kinds,
// before any scheduler exists.
func runScenario(sc scenario.Scenario, rec *obs.Recorder, kinds ...obs.Kind) scenario.Result {
	return must(scenario.Run(sc, func(bus *obs.Bus) {
		if observe != nil {
			observe(bus)
		}
		if rec != nil {
			bus.Subscribe(rec, kinds...)
		}
	}))
}

// newCluster builds a fleet of count nodes, each a Xeon host with gpus
// under collocating placement, its GPUs in NVLink islands of size island
// (PCIe only when island is 0), and hands every node's bus to observe,
// in node order, before anything is submitted.
func newCluster(count, island int, gpus ...device.GPUClass) *cluster.Cluster {
	var c *cluster.Cluster
	if island > 0 {
		c = cluster.NewNVLink(cluster.Collocate{}, count, island, gpus...)
	} else {
		c = cluster.New(cluster.Collocate{}, count, gpus...)
	}
	if observe != nil {
		buses := make([]*obs.Bus, len(c.Nodes()))
		for i, n := range c.Nodes() {
			buses[i] = n.Machine().Bus()
		}
		observe(buses...)
	}
	return c
}

// must returns v and panics on err. The experiments name only models,
// machines and jobs they know to be valid, so an error is a programming
// error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
