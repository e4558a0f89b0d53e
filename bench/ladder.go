package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"switchflow/internal/cluster"
	"switchflow/internal/core"
	"switchflow/internal/device"
	"switchflow/internal/executor"
	"switchflow/internal/experiments"
	"switchflow/internal/graph"
	"switchflow/internal/harness"
	"switchflow/internal/models"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
	"switchflow/internal/traffic"
	"switchflow/internal/workload"
)

// The layer ladder: each cell drives one layer's public entry point with
// the real layers below it and nothing above, and times batches of calls
// from the benchmark's side of the boundary. A batch is a thousand or
// more calls (or a few simulated steps of a whole manager), so the two
// clock reads per span stay far below 1% of what they bracket.

// span is one timed interval, written to spans.json.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory, timed from its creation.
type tracer struct {
	clock func() time.Duration
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: t.clock().Nanoseconds(), Parent: parent})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = t.clock().Nanoseconds() }

// cell is one rung of the ladder. setup builds the cell's world and
// returns a batch function that performs one batch of calls and reports
// how many units (events, kernels, tasks, steps...) it completed.
type cell struct {
	layer, unit string
	allocs      bool
	setup       func() (func() (int, error), error)
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// ladderResult is what the ladder child process reports.
type ladderResult struct {
	Metrics []namedValue `json:"metrics"`
}

// runLadder measures every cell and writes the spans to dir/spans.json.
func runLadder(quick bool, dir string) (ladderResult, error) {
	runtime.GOMAXPROCS(1)
	harness.SetParallelism(1)
	batches := 7
	if quick {
		batches = 1
	}
	tr := &tracer{clock: cpuStopwatch(), spans: make([]span, 0, 512)}
	root := tr.begin("ladder", 0)
	var res ladderResult
	ns := map[string]float64{}
	var tasksPerKernel float64
	for _, c := range ladderCells(&tasksPerKernel) {
		id := tr.begin("cell:"+c.layer+"/"+c.unit, root)
		batch, err := c.setup()
		if err != nil {
			return res, fmt.Errorf("ladder %s: %w", c.layer, err)
		}
		if _, err := batch(); err != nil { // warm caches and lazy set-up
			return res, fmt.Errorf("ladder %s: %w", c.layer, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		perUnit := make([]float64, 0, batches)
		total := 0
		for b := 0; b < batches; b++ {
			sid := tr.begin(c.layer+"."+c.unit+"s", id)
			n, err := batch()
			tr.end(sid)
			if err != nil {
				return res, fmt.Errorf("ladder %s: %w", c.layer, err)
			}
			if n == 0 {
				return res, fmt.Errorf("ladder %s: a batch completed no %s", c.layer, c.unit)
			}
			s := tr.spans[sid-1]
			perUnit = append(perUnit, float64(s.End-s.Start)/float64(n))
			total += n
		}
		runtime.ReadMemStats(&after)
		tr.end(id)
		name := c.layer + ".ns_per_" + c.unit
		ns[name] = median(perUnit)
		res.Metrics = append(res.Metrics, namedValue{name, ns[name]})
		if c.allocs {
			res.Metrics = append(res.Metrics, namedValue{c.layer + ".allocs_per_" + c.unit,
				float64(after.Mallocs-before.Mallocs) / float64(total)})
		}
	}
	tr.end(root)
	// Executor self time: its per-kernel cost minus the stream (which
	// includes the device and the event queue below it) and the worker
	// tasks the run submits per kernel.
	res.Metrics = append(res.Metrics, namedValue{"executor.self_ns_per_kernel",
		ns["executor.ns_per_kernel"] - ns["stream.ns_per_kernel"] - tasksPerKernel*ns["threadpool.ns_per_task"]})

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	data, err := json.MarshalIndent(tr.spans, "", "  ")
	if err != nil {
		return res, err
	}
	return res, os.WriteFile(filepath.Join(dir, "spans.json"), append(data, '\n'), 0o644)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stepUntil advances eng one event at a time until done reports true.
func stepUntil(eng *sim.Engine, done func() bool) error {
	for !done() {
		if !eng.Step() {
			return fmt.Errorf("event queue drained")
		}
	}
	return nil
}

// flatProfile is the fleet's tenant mix at a constant rate, so every
// batch of arrivals costs the same.
func flatProfile() traffic.Profile {
	p := experiments.FleetProfile(30*time.Second, 1_000_000)
	p.DiurnalPeriod = 0
	p.Spikes = nil
	return p
}

func ladderCells(tasksPerKernel *float64) []cell {
	return []cell{
		{layer: "sim", unit: "event", allocs: true, setup: func() (func() (int, error), error) {
			const depth, calls = 4096, 20000
			eng := sim.NewEngine()
			fn := func() {}
			for i := time.Duration(0); i < depth; i++ {
				eng.Schedule(i, fn)
			}
			return func() (int, error) {
				for i := 0; i < calls; i++ {
					eng.Schedule(eng.Now()+depth, fn)
					eng.Step()
				}
				return calls, nil
			}, nil
		}},
		{layer: "device", unit: "kernel", allocs: true, setup: func() (func() (int, error), error) {
			// Four contexts' kernels share the processor (occupancies sum
			// below 1), each context resubmitting on completion.
			eng := sim.NewEngine()
			gpu := device.NewGPU(eng, device.GPUID(0), device.ClassV100)
			kernels := make([]device.Kernel, 4)
			for c := range kernels {
				k := &kernels[c]
				*k = device.Kernel{Name: "k", Work: time.Duration(40+7*c) * time.Microsecond, Occupancy: 0.2, Ctx: c + 1}
				k.OnDone = func() { gpu.Submit(*k) }
				gpu.Submit(*k)
			}
			return launched(eng, gpu, 5000), nil
		}},
		{layer: "stream", unit: "kernel", allocs: true, setup: func() (func() (int, error), error) {
			// One stream with one kernel in flight and one queued: the
			// shape an executor run drives, so the executor's self time can
			// subtract this cell.
			eng := sim.NewEngine()
			gpu := device.NewGPU(eng, device.GPUID(0), device.ClassV100)
			s := device.NewStream(gpu)
			var k device.Kernel
			k = device.Kernel{Name: "k", Work: 40 * time.Microsecond, Occupancy: 0.9, Ctx: 1,
				OnDone: func() { s.Enqueue(k) }}
			s.Enqueue(k)
			s.Enqueue(k)
			return launched(eng, gpu, 5000), nil
		}},
		{layer: "threadpool", unit: "task", allocs: true, setup: func() (func() (int, error), error) {
			eng := sim.NewEngine()
			// Fewer tasks than workers, each resubmitting itself: tasks
			// start at once, as an executor's launch tasks mostly do.
			pool := threadpool.New(eng, "global", 8)
			ran := 0
			for i := 0; i < 4; i++ {
				t := &threadpool.Task{Name: "t", Duration: time.Duration(20+i) * time.Microsecond}
				t.Run = func() {
					ran++
					pool.Submit(t, -1, false)
				}
				pool.Submit(t, -1, false)
			}
			return func() (int, error) {
				start := ran
				err := stepUntil(eng, func() bool { return ran-start >= 5000 })
				return ran - start, err
			}, nil
		}},
		{layer: "executor", unit: "kernel", allocs: true, setup: func() (func() (int, error), error) {
			spec, err := models.ByName("ResNet50")
			if err != nil {
				return nil, err
			}
			g, err := spec.Build(models.BuildConfig{Batch: 32, Training: true, Device: device.GPUID(0)})
			if err != nil {
				return nil, err
			}
			subs, err := graph.Partition(g)
			if err != nil {
				return nil, err
			}
			compute := subs[len(subs)-1]
			eng := sim.NewEngine()
			machine := device.NewMachine(eng, device.ClassXeonDual, device.ClassV100)
			gpu := machine.GPU(0)
			cfg := executor.Config{
				Pool:   threadpool.New(eng, "global", machine.CPU.Cores-4),
				Stream: device.NewStream(gpu), Machine: machine, CPUClass: machine.CPU, Ctx: 1, Bus: machine.Bus(),
			}
			runs := 0
			var startErr error
			var start func()
			start = func() {
				runs++
				if _, err := executor.Start(eng, compute, cfg, start); err != nil && startErr == nil {
					startErr = err
				}
			}
			start()
			// One full run fixes how many worker tasks (one per node on a
			// GPU subgraph) each kernel costs, for the self-time split.
			if err := stepUntil(eng, func() bool { return runs > 1 }); err != nil {
				return nil, err
			}
			*tasksPerKernel = float64(len(compute.Nodes)) / float64(gpu.Launched())
			next := launched(eng, gpu, 5000)
			return func() (int, error) {
				n, err := next()
				if startErr != nil {
					return n, startErr
				}
				return n, err
			}, nil
		}},
		{layer: "core", unit: "step", allocs: true, setup: func() (func() (int, error), error) {
			eng, mgr := v100Manager()
			job, err := addTraining(mgr, "ResNet50", device.GPUID(0), false)
			if err != nil {
				return nil, err
			}
			return iterations(eng, job, 5), nil
		}},
		{layer: "core", unit: "preempt", allocs: true, setup: func() (func() (int, error), error) {
			eng, mgr := v100Manager()
			if _, err := addTraining(mgr, "VGG16", device.GPUID(0), false); err != nil {
				return nil, err
			}
			spec, err := models.ByName("ResNet50")
			if err != nil {
				return nil, err
			}
			if _, err := mgr.AddJob(workload.Config{
				Name: "serve", Model: spec, Batch: 1, Kind: workload.KindServing, Priority: 2,
				Device: device.GPUID(0), ClosedLoop: true,
			}); err != nil {
				return nil, err
			}
			return func() (int, error) {
				start := mgr.Preemptions
				err := stepUntil(eng, func() bool { return mgr.Preemptions-start >= 20 })
				return mgr.Preemptions - start, err
			}, nil
		}},
		{layer: "core", unit: "gang_step", setup: func() (func() (int, error), error) {
			eng := sim.NewEngine()
			mgr := core.NewManager(eng, device.NewNVLinkV100Server(eng), core.Options{})
			job, err := addTraining(mgr, "ResNet50", device.GPUID(0), true)
			if err != nil {
				return nil, err
			}
			return iterations(eng, job, 5), nil
		}},
		{layer: "traffic", unit: "arrival", allocs: true, setup: func() (func() (int, error), error) {
			gen, err := traffic.NewGenerator(flatProfile())
			if err != nil {
				return nil, err
			}
			var from time.Duration
			return func() (int, error) {
				n := 0
				for n < 1000 {
					n += len(gen.Batch(from, from+cluster.DefaultEpoch))
					from += cluster.DefaultEpoch
				}
				return n, nil
			}, nil
		}},
		{layer: "cluster", unit: "epoch", allocs: true, setup: func() (func() (int, error), error) {
			c := cluster.New(cluster.Collocate{}, fleetNodes, device.ClassV100, device.ClassV100)
			gen, err := traffic.NewGenerator(flatProfile())
			if err != nil {
				return nil, err
			}
			fe, err := cluster.NewFrontend(c, gen, cluster.RouteHash, nil)
			if err != nil {
				return nil, err
			}
			fe.Start(1)
			return func() (int, error) {
				const epochs = 200
				for i := 0; i < epochs; i++ {
					c.RunFor(cluster.DefaultEpoch)
				}
				return epochs, nil
			}, nil
		}},
	}
}

// launched returns a batch function that steps eng until gpu has taken
// n more kernels.
func launched(eng *sim.Engine, gpu *device.GPU, n uint64) func() (int, error) {
	return func() (int, error) {
		start := gpu.Launched()
		err := stepUntil(eng, func() bool { return gpu.Launched()-start >= n })
		return int(gpu.Launched() - start), err
	}
}

// iterations returns a batch function that steps eng until job has
// completed n more steps.
func iterations(eng *sim.Engine, job *workload.Job, n int) func() (int, error) {
	return func() (int, error) {
		start := job.Iterations
		err := stepUntil(eng, func() bool { return job.Iterations-start >= n })
		return job.Iterations - start, err
	}
}

// v100Manager is a SwitchFlow manager over one Xeon + V100 machine.
func v100Manager() (*sim.Engine, *core.Manager) {
	eng := sim.NewEngine()
	return eng, core.NewManager(eng, device.NewMachine(eng, device.ClassXeonDual, device.ClassV100), core.Options{})
}

// addTraining admits a BS32 training job on dev, or a two-replica gang
// on dev and the GPU after it.
func addTraining(mgr *core.Manager, model string, dev device.ID, gang bool) (*workload.Job, error) {
	spec, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	cfg := workload.Config{Name: "train-" + model, Model: spec, Batch: 32, Kind: workload.KindTraining, Priority: 1, Device: dev}
	if gang {
		cfg.Gang = true
		cfg.VNodes = []device.ID{dev, device.GPUID(dev.Index + 1)}
	}
	return mgr.AddJob(cfg)
}
