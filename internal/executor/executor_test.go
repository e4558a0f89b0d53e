package executor

import (
	"testing"
	"testing/quick"
	"time"

	"switchflow/internal/cost"
	"switchflow/internal/device"
	"switchflow/internal/graph"
	"switchflow/internal/models"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
)

type fixture struct {
	eng     *sim.Engine
	machine *device.Machine
	pool    *threadpool.Pool
}

func newFixture(workers int) *fixture {
	eng := sim.NewEngine()
	return &fixture{
		eng:     eng,
		machine: device.NewMachine(eng, device.ClassXeonDual, device.ClassV100),
		pool:    threadpool.New(eng, "global", workers),
	}
}

func (f *fixture) gpuConfig(stream *device.Stream) Config {
	return Config{Pool: f.pool, CPUClass: f.machine.CPU, Stream: stream, Machine: f.machine}
}

func (f *fixture) cpuConfig() Config {
	return Config{Pool: f.pool, CPUClass: f.machine.CPU, Machine: f.machine}
}

// buildSubgraphs builds and partitions a model graph.
func buildSubgraphs(t testing.TB, spec *models.Spec, cfg models.BuildConfig) []*graph.Subgraph {
	t.Helper()
	g, err := spec.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func TestRunCPUSubgraphCompletes(t *testing.T) {
	f := newFixture(4)
	g := graph.New("cpu")
	for i := 0; i < 4; i++ {
		g.AddNode(&graph.Node{
			Name: "shard", Op: graph.OpPreprocess,
			Device: device.CPUID, CPUTime: 10 * time.Millisecond,
		})
	}
	subs, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	run, err := Start(f.eng, subs[0], f.cpuConfig(), func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !done || !run.Done() {
		t.Fatal("CPU run did not complete")
	}
	// 4 independent shards on 4 workers run in parallel.
	if f.eng.Now() != 10*time.Millisecond {
		t.Fatalf("parallel shards took %v, want 10ms", f.eng.Now())
	}
}

func TestRunCPUShardsSerializeOnFewWorkers(t *testing.T) {
	f := newFixture(2)
	g := graph.New("cpu")
	for i := 0; i < 4; i++ {
		g.AddNode(&graph.Node{
			Name: "shard", Op: graph.OpPreprocess,
			Device: device.CPUID, CPUTime: 10 * time.Millisecond,
		})
	}
	subs, _ := graph.Partition(g)
	if _, err := Start(f.eng, subs[0], f.cpuConfig(), nil); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if f.eng.Now() != 20*time.Millisecond {
		t.Fatalf("4 shards on 2 workers took %v, want 20ms", f.eng.Now())
	}
}

func TestRunGPUChainSerializesOnStream(t *testing.T) {
	f := newFixture(8)
	g := graph.New("gpu")
	var prev *graph.Node
	const kernels = 5
	for i := 0; i < kernels; i++ {
		n := g.AddNode(&graph.Node{
			Name: "conv", Op: graph.OpConv2D,
			Device: device.GPUID(0), FLOPs: 5.6e9, // ~1 ms on V100
		})
		if prev != nil {
			g.Connect(prev, n)
		}
		prev = n
	}
	subs, _ := graph.Partition(g)
	stream := device.NewStream(f.machine.GPU(0))
	done := false
	if _, err := Start(f.eng, subs[0], f.gpuConfig(stream), func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !done {
		t.Fatal("GPU run did not complete")
	}
	// Chain of ~1ms kernels plus launch overheads: roughly 5ms total.
	if f.eng.Now() < 5*time.Millisecond || f.eng.Now() > 6*time.Millisecond {
		t.Fatalf("5-kernel chain took %v, want ~5ms", f.eng.Now())
	}
}

func TestRunSendTransfersTensor(t *testing.T) {
	f := newFixture(4)
	g := graph.New("xfer")
	pre := g.AddNode(&graph.Node{
		Name: "pre", Op: graph.OpPreprocess, Device: device.CPUID,
		CPUTime: time.Millisecond, OutputBytes: 113 << 20, // ~10ms at 11.3 GB/s
	})
	conv := g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D,
		Device: device.GPUID(0), FLOPs: 1e6})
	g.Connect(pre, conv)
	subs, _ := graph.Partition(g)
	cpuDone := false
	if _, err := Start(f.eng, subs[0], f.cpuConfig(), func() { cpuDone = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !cpuDone {
		t.Fatal("CPU stage incomplete")
	}
	// Preprocess 1ms + H2D ~10ms: the Send's transfer is on the stage's
	// critical path.
	if f.eng.Now() < 10*time.Millisecond {
		t.Fatalf("stage with H2D took %v, want >= 10ms", f.eng.Now())
	}
	if f.machine.HostToDevice(0).Transferred() != 113<<20 {
		t.Fatalf("H2D moved %d bytes", f.machine.HostToDevice(0).Transferred())
	}
}

func TestRunFullModelInferencePipeline(t *testing.T) {
	f := newFixture(32)
	spec, err := models.ByName("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	subs := buildSubgraphs(t, spec, models.BuildConfig{Batch: 16, Device: device.GPUID(0)})
	stream := device.NewStream(f.machine.GPU(0))
	// Stage 1: input.
	inputDone := false
	if _, err := Start(f.eng, subs[0], f.cpuConfig(), func() { inputDone = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !inputDone {
		t.Fatal("input stage incomplete")
	}
	inputEnd := f.eng.Now()
	// Stage 2: compute.
	computeDone := false
	if _, err := Start(f.eng, subs[1], f.gpuConfig(stream), func() { computeDone = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !computeDone {
		t.Fatal("compute stage incomplete")
	}
	computeTime := f.eng.Now() - inputEnd
	// BS=16 inference: ~16 x 7.7 GF at ~5.6 TF/s effective -> ~25ms, plus
	// memory-bound layers; accept a broad band.
	if computeTime < 10*time.Millisecond || computeTime > 150*time.Millisecond {
		t.Fatalf("ResNet50 BS=16 inference compute = %v, want 10-150ms", computeTime)
	}
	if got := f.machine.GPU(0).Launched(); got == 0 {
		t.Fatal("no kernels launched")
	}
}

// startChain starts a run of ten dependent 0.5ms GPU kernels (about
// 10ms end to end on f's V100); *completed turns true if it finishes.
func startChain(t *testing.T, f *fixture) (run *Run, completed *bool) {
	t.Helper()
	g := graph.New("abort")
	var prev *graph.Node
	for i := 0; i < 10; i++ {
		n := g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D,
			Device: device.GPUID(0), FLOPs: 5.6e9})
		if prev != nil {
			g.Connect(prev, n)
		}
		prev = n
	}
	subs, _ := graph.Partition(g)
	stream := device.NewStream(f.machine.GPU(0))
	completed = new(bool)
	run, err := Start(f.eng, subs[0], f.gpuConfig(stream), func() { *completed = true })
	if err != nil {
		t.Fatal(err)
	}
	return run, completed
}

func TestRunAbortStopsQueuedWork(t *testing.T) {
	f := newFixture(4)
	run, completed := startChain(t, f)
	f.eng.Schedule(2500*time.Microsecond, run.Abort)
	f.eng.Run()
	if *completed {
		t.Fatal("aborted run reported completion")
	}
	if !run.aborted {
		t.Fatal("run not marked aborted")
	}
	// The chain would take ~10ms; abort at 2.5ms leaves only the
	// in-flight kernel (ends at ~3ms) for the engine to run.
	if f.eng.Now() > 5*time.Millisecond {
		t.Fatalf("engine idled at %v after the abort, want well before chain end (10ms)", f.eng.Now())
	}
	done, total := run.done, run.total
	if done >= total {
		t.Fatalf("progress %d/%d after abort", done, total)
	}
}

func TestRunAbortIsIdempotent(t *testing.T) {
	// Two identical chains, one aborted once and one twice: the second
	// Abort must change nothing, at the abort or after it.
	type outcome struct {
		aborted, suspended bool
		epoch              uint32
		done               int
		now                time.Duration
		fired              uint64
	}
	abort := func(times int) (at, end outcome) {
		f := newFixture(4)
		run, completed := startChain(t, f)
		snap := func() outcome {
			return outcome{run.aborted, run.suspended, run.epoch, run.done, f.eng.Now(), f.eng.Fired()}
		}
		f.eng.Schedule(2500*time.Microsecond, func() {
			for i := 0; i < times; i++ {
				run.Abort()
			}
			at = snap()
		})
		f.eng.Run()
		if *completed {
			t.Fatalf("run aborted %d times reported completion", times)
		}
		return at, snap()
	}
	onceAt, onceEnd := abort(1)
	twiceAt, twiceEnd := abort(2)
	if onceAt != twiceAt || onceEnd != twiceEnd {
		t.Fatalf("second Abort changed the run: once %+v then %+v, twice %+v then %+v",
			onceAt, onceEnd, twiceAt, twiceEnd)
	}
}

func TestStartRequiresStreamForGPU(t *testing.T) {
	f := newFixture(2)
	g := graph.New("g")
	g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D, Device: device.GPUID(0), FLOPs: 1e6})
	subs, _ := graph.Partition(g)
	if _, err := Start(f.eng, subs[0], f.cpuConfig(), nil); err == nil {
		t.Fatal("Start accepted GPU subgraph without stream")
	}
}

func TestEmptySubgraphCompletesImmediately(t *testing.T) {
	f := newFixture(2)
	sub := &graph.Subgraph{Graph: graph.New("empty"), Device: device.CPUID}
	done := false
	if _, err := Start(f.eng, sub, f.cpuConfig(), func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !done {
		t.Fatal("empty subgraph never completed")
	}
}

// Property: under randomly timed suspend/resume cycles, a run still
// completes with every node executed exactly once.
func TestSuspendResumeProperty(t *testing.T) {
	prop := func(layerWidths []uint8, suspendAtUS []uint16) bool {
		f := newFixture(8)
		g := graph.New("prop")
		var prev []*graph.Node
		layers := 0
		for _, w := range layerWidths {
			if layers == 5 {
				break
			}
			width := int(w%3) + 1
			var cur []*graph.Node
			for i := 0; i < width; i++ {
				n := g.AddNode(&graph.Node{
					Name: "conv", Op: graph.OpConv2D,
					Device: device.GPUID(0), FLOPs: 1e9,
				})
				for _, p := range prev {
					g.Connect(p, n)
				}
				cur = append(cur, n)
			}
			prev = cur
			layers++
		}
		if g.Len() == 0 {
			return true
		}
		subs, err := graph.Partition(g)
		if err != nil {
			return false
		}
		stream := device.NewStream(f.machine.GPU(0))
		done := false
		run, err := Start(f.eng, subs[0], f.gpuConfig(stream), func() { done = true })
		if err != nil {
			return false
		}
		// Schedule suspend/resume cycles at arbitrary instants.
		for i, at := range suspendAtUS {
			if i == 4 {
				break
			}
			f.eng.Schedule(time.Duration(at)*time.Microsecond, func() {
				run.Suspend(func() {
					f.eng.After(time.Duration(at%97)*time.Microsecond, run.Resume)
				})
			})
		}
		f.eng.Run()
		completed, total := run.done, run.total
		return done && completed == total
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Suspending twice while the node's first two worker tasks are still on
// their threads: both tasks come from older epochs and must be ignored, so
// the node launches its kernel once, from the third dispatch.
func TestSuspendTwiceIgnoresOlderEpochTasks(t *testing.T) {
	f := newFixture(4)
	g := graph.New("one")
	g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D, Device: device.GPUID(0), FLOPs: 5.6e9})
	subs, _ := graph.Partition(g)
	cfg := f.gpuConfig(device.NewStream(f.machine.GPU(0)))
	cfg.Eager = true // 75µs of worker time per op: room to suspend inside it
	cfg.Bus = f.machine.Bus()
	var rec obs.Recorder
	cfg.Bus.Subscribe(&rec, obs.KindOpSched)
	done := false
	run, err := Start(f.eng, subs[0], cfg, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{10 * time.Microsecond, 20 * time.Microsecond} {
		f.eng.Schedule(at, func() {
			run.Suspend(nil)
			run.Resume()
		})
	}
	f.eng.RunUntil(50 * time.Microsecond)
	inFlight := 0
	for _, e := range rec.Events() {
		if e.Time+e.Dur > f.eng.Now() {
			inFlight++
		}
	}
	if inFlight != 3 {
		t.Fatalf("%d worker tasks in flight, want 3 (one per epoch)", inFlight)
	}
	f.eng.Run()
	if !done {
		t.Fatal("run did not complete")
	}
	if got := f.machine.GPU(0).Launched(); got != 1 {
		t.Fatalf("node launched %d kernels, want 1", got)
	}
}

// Property: a suspended run retains monotone progress — resuming never
// loses completed nodes.
func TestSuspendKeepsProgress(t *testing.T) {
	f := newFixture(8)
	g := graph.New("chain")
	var prev *graph.Node
	for i := 0; i < 10; i++ {
		n := g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D,
			Device: device.GPUID(0), FLOPs: 5.6e9})
		if prev != nil {
			g.Connect(prev, n)
		}
		prev = n
	}
	subs, _ := graph.Partition(g)
	stream := device.NewStream(f.machine.GPU(0))
	done := false
	run, err := Start(f.eng, subs[0], f.gpuConfig(stream), func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Schedule(3500*time.Microsecond, func() {
		run.Suspend(nil)
	})
	f.eng.RunUntil(50 * time.Millisecond)
	mid, total := run.done, run.total
	if mid == 0 || mid >= total {
		t.Fatalf("progress at suspension = %d/%d", mid, total)
	}
	run.Resume()
	f.eng.Run()
	after := run.done
	if after != total || !done {
		t.Fatalf("after resume: %d/%d done=%v", after, total, done)
	}
}

// A migration runs the same subgraph on another GPU class. Each run's
// kernels must carry its own class's roofline durations, the plan must end
// up with one kernel table per class, and starting again on a class the
// plan already holds must reuse its table.
func TestKernelTablesPerGPUClass(t *testing.T) {
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, device.ClassRTX2080Ti, device.ClassV100)
	pool := threadpool.New(eng, "global", 8)
	g := graph.New("mixed")
	var prev *graph.Node
	for i, n := range []*graph.Node{
		{Name: "conv", Op: graph.OpConv2D, FLOPs: 2.3e9, MemBytes: 48 << 20},
		{Name: "bn", Op: graph.OpBatchNorm, FLOPs: 1e7, MemBytes: 200 << 20},
		{Name: "relu", Op: graph.OpActivation, FLOPs: 1e6, MemBytes: 1 << 20},
		{Name: "dense", Op: graph.OpDense, FLOPs: 5.1e8, MemBytes: 12 << 20},
	} {
		n.Device = device.GPUID(0)
		g.AddNode(n)
		if i > 0 {
			g.Connect(prev, n)
		}
		prev = n
	}
	subs, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	sub := subs[0]
	byName := map[string]*graph.Node{}
	for _, n := range sub.Nodes {
		byName[n.Name] = n
	}
	launched := map[string]time.Duration{}
	machine.Bus().Subscribe(obs.SinkFunc(func(e obs.Event) { launched[e.Name] = e.Dur }), obs.KindLaunch)

	runOn := func(gpu int) *Run {
		t.Helper()
		clear(launched)
		cfg := Config{Pool: pool, CPUClass: machine.CPU, Machine: machine, Bus: machine.Bus(),
			Stream: device.NewStream(machine.GPU(gpu))}
		run, err := Start(eng, sub, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !run.Done() {
			t.Fatalf("run on gpu:%d did not complete", gpu)
		}
		class := machine.GPU(gpu).Class
		if len(launched) != len(sub.Nodes) {
			t.Fatalf("%d kernels launched on %s, want %d", len(launched), class.Name, len(sub.Nodes))
		}
		for name, work := range launched {
			if want := cost.KernelDuration(byName[name], class); work != want {
				t.Errorf("%s on %s launched with %v, want %v", name, class.Name, work, want)
			}
		}
		return run
	}
	// Finished runs are recycled, so keep their tables, not the runs.
	first := runOn(0).kern  // RTX 2080 Ti
	second := runOn(1).kern // V100, after the migration
	if second == first {
		t.Fatal("runs on two classes share one kernel table")
	}
	if again := runOn(0).kern; again != first {
		t.Fatal("second run on the RTX 2080 Ti built a new kernel table")
	}
}
