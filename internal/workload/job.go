// Package workload provides the job runtime shared by the SwitchFlow
// scheduler and the baselines: a DL job owns replicated graph versions
// (one per device it may run on, §3.2), per-GPU compute streams, weight
// and intermediate memory accounting, an input prefetch pipeline, and
// serving-request bookkeeping.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/executor"
	"switchflow/internal/graph"
	"switchflow/internal/metrics"
	"switchflow/internal/models"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
	"switchflow/internal/vnode"
)

// Kind distinguishes training from serving jobs.
type Kind int

// Job kinds.
const (
	// KindTraining runs iterations continuously, throughput oriented.
	KindTraining Kind = iota + 1
	// KindServing processes an open-loop stream of inference requests,
	// latency oriented.
	KindServing
)

// Config describes one DL job.
type Config struct {
	// Name labels the job.
	Name string
	// Model is the network to run.
	Model *models.Spec
	// Batch is the mini-batch size.
	Batch int
	// Kind selects training or serving.
	Kind Kind
	// Priority orders jobs for preemption; higher preempts lower.
	Priority int
	// Device is the preferred compute device.
	Device device.ID
	// Fallbacks lists migration targets in preference order (§3.3); empty
	// means the job waits on its device when preempted.
	Fallbacks []device.ID
	// VNodes, when non-empty, makes a training job elastic: its batch is
	// split across one virtual node per listed device (devices may repeat
	// to time-multiplex), with shares priced by internal/cost, and the
	// binding becomes a runtime property the scheduler may change at
	// epoch-safe points. Device must equal VNodes[0]. Empty makes a plain
	// job: one implicit vnode covering the whole batch on Device.
	VNodes []device.ID
	// Gang makes an elastic training job a synchronous data-parallel gang
	// (TensorFlow OSDI'16's replicated synchronous training): one replica
	// per vnode on a distinct GPU, computing independently then meeting at
	// a ring all-reduce step barrier priced on the machine's interconnect
	// fabric. The scheduler places, preempts, and resumes the gang
	// all-or-nothing — never a lone replica.
	Gang bool
	// Replicas is the desired gang width for placement layers that choose
	// the GPU set themselves (the cluster's gang bin-packer materializes
	// VNodes on the chosen node). When VNodes is already set it must be
	// empty or match len(VNodes).
	Replicas int
	// PreprocShards and PerImageCPU configure the input stage (zero picks
	// model defaults).
	PreprocShards int
	PerImageCPU   time.Duration
	// ArrivalEvery is the serving request period (open loop).
	ArrivalEvery time.Duration
	// PoissonArrivals draws exponential inter-arrival times with mean
	// ArrivalEvery — §3.1: "online inference queries often arrive
	// unpredictably and stochastically". Deterministic per ArrivalSeed.
	PoissonArrivals bool
	// ArrivalSeed seeds the arrival process (0 uses the job context id).
	ArrivalSeed int64
	// ClosedLoop makes a serving job submit the next request the moment
	// the previous one completes — the paper's "continuous stream" of
	// inference requests (§5.2.1). The first request arrives immediately.
	ClosedLoop bool
	// Saturated makes a serving job iterate continuously with an
	// unbounded backlog and no latency accounting — used to measure
	// inference throughput (Figures 8-10).
	Saturated bool
	// SLO is the per-request latency objective of a serving job. When set,
	// the admission controller sheds arrivals whose projected queueing
	// delay exceeds it, and completions within it count toward SLO
	// attainment. Zero disables both.
	SLO time.Duration
	// MaxBatch caps the dynamic batcher's micro-batch size: up to MaxBatch
	// ready requests fuse into one compute launch (graph batch
	// MaxBatch x Batch). Zero or one disables batching.
	MaxBatch int
	// BatchWait bounds how long a batching-aware scheduler holds a
	// sub-target micro-batch open for more requests. Zero launches
	// greedily with whatever is ready.
	BatchWait time.Duration
	// PrefetchDepth is the input pipeline depth (default 2, the tf.data
	// prefetch the paper's Figure 3 setup uses).
	PrefetchDepth int
	// Eager runs the model in dynamic-graph (eager) mode: every op pays a
	// framework dispatch overhead and no graph-level optimization applies
	// (§1's static-vs-dynamic contrast).
	Eager bool
	// Fuse applies static-graph elementwise fusion (mutually exclusive
	// with Eager).
	Fuse bool
	// CheckpointEvery is the period of background checkpoints to host
	// memory (fault recovery, TF's checkpoint-and-restart story). Zero
	// disables checkpointing; recoveries then roll training back to the
	// admission state.
	CheckpointEvery time.Duration
	// RestartBackoff is the base delay of the crash-and-restart loop;
	// consecutive restarts back off exponentially from it (default
	// 250 ms, capped at 16x the base).
	RestartBackoff time.Duration
}

// Version is one device placement of the job's graph: the replicated
// executors SwitchFlow keeps per device (§3.2).
type Version struct {
	// Graph is the full graph built for this placement.
	Graph *graph.Graph
	// Input is the CPU input stage; nil for all-CPU placements, where
	// Compute covers everything.
	Input *graph.Subgraph
	// Compute is the model's compute subgraph on the target device.
	Compute *graph.Subgraph
}

// Job is the runtime state of one DL job. Schedulers drive it; the fields
// here are the scheduler-independent parts.
type Job struct {
	// Cfg is the job's configuration.
	Cfg Config
	// Ctx tags this job's kernels in traces.
	Ctx int

	// Iterations counts completed session runs (training steps or served
	// requests).
	Iterations int
	// Latencies records per-request latency for serving jobs.
	Latencies metrics.Latency
	// CrashErr is set when the job dies (e.g. OOM under threaded TF).
	CrashErr error
	// Restarts counts crash-and-restart recoveries (fault injection).
	Restarts int

	// InputsInFlight counts concurrently running input-stage activations
	// (tf.data overlaps the preprocessing of several batches); together
	// with ready inputs it is bounded by PrefetchDepth.
	InputsInFlight int
	// ComputeRunning flags an in-flight compute stage.
	ComputeRunning bool

	eng     *sim.Engine
	machine *device.Machine
	bus     *obs.Bus
	// serving aggregates the job's admission/batching outcomes from the
	// observability spine (it subscribes to the machine bus, filtered by
	// context) instead of being hand-incremented at each call site.
	serving metrics.ServingSink
	// versions memoizes every graph version the job has built, keyed by
	// device and graph-level batch: the per-device full batch, fused
	// serving micro-batches, and elastic shards all share it.
	versions map[versionKey]*Version
	streams  map[device.ID]*device.Stream
	dataPool *threadpool.Pool

	// Serving request flow, all carrying arrival times: pending (admitted,
	// not yet preprocessing), inflight (input stage running), ready
	// (prefetched, awaiting compute), active (the micro-batch the current
	// compute run serves).
	pending      arrivalQueue
	inflight     arrivalQueue
	ready        arrivalQueue
	active       []time.Duration // reuses its storage across micro-batches
	inputReady   int
	arrivalEvent sim.Event
	// notify gates the closed-loop re-arm; StopArrivals clears it.
	// pumpHook is the scheduler wakeup for batch-wait timers; it survives
	// StopArrivals so admitted requests drain (stopped jobs' pumps are
	// no-ops anyway).
	notify          func()
	pumpHook        func()
	closedArrivalFn func()

	// Dynamic-batching state (batch.go): memoized micro-batch cost
	// estimates, the resolved target size, and the max-wait window.
	batchEst      map[int]time.Duration
	targetBatch   int
	batchTimer    sim.Event
	batchWakeFn   func()
	batchDeadline time.Duration
	inputEst      time.Duration
	inputEstKnown bool

	weightHome   map[device.ID]int64 // allocated weight bytes
	intermediate map[device.ID]int64

	// Virtual-node state: the runtime binding (vnode.go in this package).
	binding vnode.Binding

	// Checkpoint/restart recovery state (see recovery.go).
	checkpointIters int
	checkpointAt    time.Duration
	backoff         time.Duration
}

// NewJob builds a job and its graph versions for the preferred device and
// every fallback.
func NewJob(eng *sim.Engine, machine *device.Machine, ctx int, cfg Config) (*Job, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("workload: job %q has no model", cfg.Name)
	}
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("workload: job %q batch must be positive", cfg.Name)
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("workload: job %q max batch must not be negative", cfg.Name)
	}
	if cfg.PrefetchDepth == 0 {
		cfg.PrefetchDepth = 2
	}
	if cfg.Kind == KindServing && !cfg.ClosedLoop && !cfg.Saturated &&
		cfg.PrefetchDepth < cfg.MaxBatch {
		// The batcher can only fuse requests that are prefetched and
		// ready, so the pipeline must stage at least a full micro-batch.
		cfg.PrefetchDepth = cfg.MaxBatch
	}
	// Each job owns its tf.data worker pool, as TF datasets do; the
	// paper's setups use 32 parallel data workers, capped by core count.
	dataWorkers := 32
	if dataWorkers > machine.CPU.Cores {
		dataWorkers = machine.CPU.Cores
	}
	j := &Job{
		Cfg:          cfg,
		Ctx:          ctx,
		eng:          eng,
		machine:      machine,
		bus:          machine.Bus(),
		serving:      metrics.ServingSink{Ctx: ctx},
		versions:     make(map[versionKey]*Version),
		streams:      make(map[device.ID]*device.Stream),
		dataPool:     threadpool.New(eng, "data:"+cfg.Name, dataWorkers),
		batchEst:     make(map[int]time.Duration),
		weightHome:   make(map[device.ID]int64),
		intermediate: make(map[device.ID]int64),
	}
	j.batchWakeFn, j.closedArrivalFn = j.batchWake, j.closedArrival
	devices := append([]device.ID{cfg.Device}, cfg.Fallbacks...)
	devices = append(devices, cfg.VNodes...)
	for _, dev := range devices {
		if _, err := j.Version(dev); err != nil {
			return nil, err
		}
	}
	if len(cfg.VNodes) > 0 {
		if cfg.Kind != KindTraining {
			return nil, fmt.Errorf("workload: job %q: virtual nodes require a training job", cfg.Name)
		}
		if cfg.VNodes[0] != cfg.Device {
			return nil, fmt.Errorf("workload: job %q: Device %v must equal VNodes[0] %v", cfg.Name, cfg.Device, cfg.VNodes[0])
		}
		if err := j.validateGang(); err != nil {
			return nil, err
		}
		b, err := vnode.Split(cfg.Batch, cfg.VNodes, j.PricerFor(cfg.VNodes))
		if err != nil {
			return nil, fmt.Errorf("workload: job %q: %w", cfg.Name, err)
		}
		j.binding = b
	} else if cfg.Gang {
		return nil, fmt.Errorf("workload: job %q: a gang needs virtual nodes (the placement layer materializes them)", cfg.Name)
	} else {
		j.binding = vnode.Single(cfg.Device, cfg.Batch)
	}
	j.bus.Subscribe(&j.serving, metrics.ServingSinkKinds...)
	return j, nil
}

// ServingStats returns the job's admission-control and batching outcomes
// (offered, shed, served, SLO-met, batches), aggregated from the
// observability spine.
func (j *Job) ServingStats() metrics.ServingCounters { return j.serving.Counters() }

// buildVersionBatch builds a graph version for an explicit graph-level
// batch size (a micro-batch of k requests runs at k x Cfg.Batch).
func (j *Job) buildVersionBatch(dev device.ID, batch int) (*Version, error) {
	g, err := j.Cfg.Model.Build(models.BuildConfig{
		Batch:         batch,
		Training:      j.Cfg.Kind == KindTraining,
		Device:        dev,
		PreprocShards: j.Cfg.PreprocShards,
		PerImageCPU:   j.Cfg.PerImageCPU,
		Fuse:          j.Cfg.Fuse && !j.Cfg.Eager,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: job %q: %w", j.Cfg.Name, err)
	}
	subs, err := graph.Partition(g)
	if err != nil {
		return nil, fmt.Errorf("workload: job %q: %w", j.Cfg.Name, err)
	}
	v := &Version{Graph: g}
	switch len(subs) {
	case 1:
		v.Compute = subs[0]
	case 2:
		v.Input, v.Compute = subs[0], subs[1]
	default:
		return nil, fmt.Errorf("workload: job %q: unexpected %d subgraphs", j.Cfg.Name, len(subs))
	}
	return v, nil
}

// versionKey identifies a graph version: the device placement and the
// graph-level batch it was built at.
type versionKey struct {
	dev   device.ID
	batch int
}

// Version returns the full-batch graph version for dev, building it on
// demand (a migration target not declared in Fallbacks).
func (j *Job) Version(dev device.ID) (*Version, error) {
	return j.versionBatch(dev, j.Cfg.Batch)
}

// versionBatch returns the graph version for dev at the given graph-level
// batch, building and memoizing it on first use.
func (j *Job) versionBatch(dev device.ID, batch int) (*Version, error) {
	key := versionKey{dev: dev, batch: batch}
	if v, ok := j.versions[key]; ok {
		return v, nil
	}
	v, err := j.buildVersionBatch(dev, batch)
	if err != nil {
		return nil, err
	}
	j.versions[key] = v
	return v, nil
}

// Stream returns the job's compute stream on dev, creating it on first
// use. CPU placements have no stream and return nil.
func (j *Job) Stream(dev device.ID) *device.Stream {
	if dev.Kind != device.KindGPU {
		return nil
	}
	s, ok := j.streams[dev]
	if !ok {
		s = device.NewStream(j.machine.GPU(dev.Index))
		j.streams[dev] = s
	}
	return s
}

// Training reports whether the job trains.
func (j *Job) Training() bool { return j.Cfg.Kind == KindTraining }

// WeightBytes is the persistent state the job keeps on its device:
// weights plus optimizer slots when training, weights alone when serving.
func (j *Job) WeightBytes() int64 {
	if j.Training() {
		return j.Cfg.Model.StatefulBytes()
	}
	return j.Cfg.Model.ParamBytes()
}

// IntermediateBytes is the peak per-iteration scratch footprint: the
// full micro-batch for a batching serving job (what an up-front process
// reservation like MPS must cover), the configured mini-batch otherwise.
func (j *Job) IntermediateBytes() int64 {
	batch := j.Cfg.Batch
	if j.batchingEnabled() {
		batch *= j.Cfg.MaxBatch
	}
	return j.Cfg.Model.IntermediateBytes(batch, j.Training())
}

// AllocWeights reserves the job's persistent state on dev. Host memory is
// not modelled (the paper's servers have >250 GB).
func (j *Job) AllocWeights(dev device.ID) error {
	if dev.Kind != device.KindGPU {
		j.weightHome[dev] += j.WeightBytes()
		return nil
	}
	if err := j.machine.GPU(dev.Index).Mem.Alloc(j.WeightBytes()); err != nil {
		return err
	}
	j.weightHome[dev] += j.WeightBytes()
	return nil
}

// FreeWeights releases previously allocated persistent state on dev.
func (j *Job) FreeWeights(dev device.ID) {
	n := j.weightHome[dev]
	if n == 0 {
		return
	}
	delete(j.weightHome, dev)
	if dev.Kind == device.KindGPU {
		j.machine.GPU(dev.Index).Mem.Free(n)
	}
}

// WeightsOn reports whether persistent state is resident on dev.
func (j *Job) WeightsOn(dev device.ID) bool { return j.weightHome[dev] > 0 }

// AllocIntermediate reserves the iteration scratch on dev, sized to the
// micro-batch the next compute launch will consume.
func (j *Job) AllocIntermediate(dev device.ID) error {
	if dev.Kind != device.KindGPU {
		return nil
	}
	n := j.Cfg.Model.IntermediateBytes(j.computeBatchSize()*j.Cfg.Batch, j.Training())
	if err := j.machine.GPU(dev.Index).Mem.Alloc(n); err != nil {
		return err
	}
	j.intermediate[dev] += n
	return nil
}

// FreeIntermediate releases the iteration scratch on dev.
func (j *Job) FreeIntermediate(dev device.ID) {
	n := j.intermediate[dev]
	if n == 0 {
		return
	}
	delete(j.intermediate, dev)
	if dev.Kind == device.KindGPU {
		j.machine.GPU(dev.Index).Mem.Free(n)
	}
}

// StartArrivals begins the serving job's request stream. onNew fires after
// each admitted arrival is enqueued (schedulers pump their pipeline
// there); shed arrivals are counted and dropped without a callback. In
// open loop the first request arrives after one period; in closed loop it
// arrives immediately and each completion triggers the next. Every
// scheduled arrival is tracked in arrivalEvent, so StopArrivals cancels
// the stream even before the first request lands.
func (j *Job) StartArrivals(onNew func()) {
	if j.Cfg.Kind != KindServing {
		return
	}
	j.notify = onNew
	j.pumpHook = onNew
	if j.Cfg.ClosedLoop {
		j.arrivalEvent = j.eng.After(0, j.closedArrivalFn)
		return
	}
	if j.Cfg.ArrivalEvery <= 0 {
		return
	}
	interval := func() time.Duration { return j.Cfg.ArrivalEvery }
	if j.Cfg.PoissonArrivals {
		seed := j.Cfg.ArrivalSeed
		if seed == 0 {
			seed = int64(j.Ctx)
		}
		rng := rand.New(rand.NewSource(seed))
		interval = func() time.Duration {
			return time.Duration(rng.ExpFloat64() * float64(j.Cfg.ArrivalEvery))
		}
	}
	var tick func()
	tick = func() {
		admitted := j.admitArrival(j.eng.Now())
		j.arrivalEvent = j.eng.After(interval(), tick)
		if admitted {
			onNew()
		}
	}
	j.arrivalEvent = j.eng.After(interval(), tick)
}

// StopArrivals halts the request stream. The batch-wait timer is left
// armed on purpose: a held sub-target micro-batch must still launch at
// its deadline so already-admitted requests drain after the stream stops
// (a stopped or crashed job's pump ignores the wakeup anyway).
func (j *Job) StopArrivals() {
	j.arrivalEvent.Cancel()
	j.arrivalEvent = sim.Event{}
	j.notify = nil
}

// Offer presents one externally generated request arrival — the fleet
// front-end's trace-driven traffic — at the current virtual time. It runs
// the same admission controller as the job's own arrival process (SLO
// projection, shed accounting) and reports whether the request was
// admitted. Only request-driven serving jobs accept offers.
func (j *Job) Offer() bool {
	if j.Cfg.Kind != KindServing || j.Cfg.Saturated {
		return false
	}
	admitted := j.admitArrival(j.eng.Now())
	if admitted && j.pumpHook != nil {
		j.pumpHook()
	}
	return admitted
}

// ShedOffer counts one externally routed request that could not be
// delivered as offered-and-shed, without running admission. The fleet
// router binds arrivals one epoch ahead of delivery, so a scale-in or
// crash can strand an already-scheduled request on a retired replica.
func (j *Job) ShedOffer() {
	j.bus.Emit(obs.Event{Kind: obs.KindShed, Ctx: j.Ctx, Job: j.Cfg.Name, Start: j.eng.Now()})
}

// OutstandingRequests counts admitted requests not yet completed — the
// router's least-loaded signal.
func (j *Job) OutstandingRequests() int {
	return j.pending.Len() + j.inflight.Len() + j.ready.Len() + len(j.active)
}

// HasWork reports whether an iteration could start: training and
// saturated serving always have work; open/closed-loop serving needs a
// pending request or a prefetched input.
func (j *Job) HasWork() bool {
	if j.Training() || j.Cfg.Saturated {
		return true
	}
	return j.pending.Len() > 0 || j.inputReady > 0 || j.inflight.Len() > 0
}

// CanStartInput reports whether another input-stage run may begin: a
// prefetch slot is free (counting runs already in flight) and (for
// serving) a request is waiting.
func (j *Job) CanStartInput() bool {
	if j.inputReady+j.InputsInFlight >= j.Cfg.PrefetchDepth {
		return false
	}
	if !j.Training() && !j.Cfg.Saturated && j.pending.Len() == 0 {
		return false
	}
	return true
}

// BeginInput transitions a request (or training batch) into the input
// stage. Requests preprocess individually — batching happens at compute
// launch, over ready inputs — so one BeginInput moves one request.
// Callers must have checked CanStartInput.
func (j *Job) BeginInput() {
	j.InputsInFlight++
	if !j.Training() && !j.Cfg.Saturated && j.pending.Len() > 0 {
		j.inflight.Push(j.pending.Pop())
	}
}

// FinishInput marks one in-flight input as prefetched and ready. Input
// runs are FIFO with equal per-request cost, so the oldest in-flight
// request is the one that finished.
func (j *Job) FinishInput() {
	if j.InputsInFlight <= 0 {
		panic("workload: FinishInput without BeginInput")
	}
	j.InputsInFlight--
	j.inputReady++
	if !j.Training() && !j.Cfg.Saturated && j.inflight.Len() > 0 {
		j.ready.Push(j.inflight.Pop())
		j.noteInputReady()
	}
}

// InputAvailable reports whether a prefetched input is waiting.
func (j *Job) InputAvailable() bool { return j.inputReady > 0 }

// BeginCompute consumes ready inputs for one compute launch: a serving
// job takes up to TargetBatch requests as the active micro-batch,
// training and saturated jobs take one.
func (j *Job) BeginCompute() {
	if j.inputReady <= 0 {
		panic("workload: BeginCompute without ready input")
	}
	if j.Training() || j.Cfg.Saturated || j.ready.Len() == 0 {
		j.inputReady--
		j.ComputeRunning = true
		return
	}
	k := j.computeBatchSize()
	if k > j.ready.Len() {
		k = j.ready.Len()
	}
	j.active = j.ready.PopN(j.active[:0], k)
	j.inputReady -= k
	j.ComputeRunning = true
	if j.ready.Len() > 0 && j.batchingEnabled() && j.Cfg.BatchWait > 0 {
		// Leftover ready requests start the next micro-batch's window.
		j.openBatchWindow()
	}
}

// FinishCompute completes an iteration: every request in the active
// micro-batch records its latency and SLO outcome, and a closed loop
// re-arms its next (tracked, cancellable) arrival.
func (j *Job) FinishCompute() {
	j.ComputeRunning = false
	j.Iterations++
	j.backoff = 0 // a healthy iteration resets the restart backoff
	if j.Training() || j.Cfg.Saturated {
		return
	}
	if len(j.active) > 0 {
		j.bus.Emit(obs.Event{
			Kind:   obs.KindBatchFuse,
			Ctx:    j.Ctx,
			Job:    j.Cfg.Name,
			Device: j.Cfg.Device.String(),
			Count:  len(j.active),
		})
		now := j.eng.Now()
		for _, arrived := range j.active {
			lat := now - arrived
			j.Latencies.Add(lat)
			met := 0
			if j.Cfg.SLO > 0 && lat <= j.Cfg.SLO {
				met = 1
			}
			j.bus.Emit(obs.Event{
				Kind:  obs.KindServe,
				Ctx:   j.Ctx,
				Job:   j.Cfg.Name,
				Start: arrived,
				Dur:   lat,
				Count: met,
			})
		}
		j.active = j.active[:0]
	}
	if j.Cfg.ClosedLoop && j.notify != nil {
		j.arrivalEvent = j.eng.After(0, j.closedArrivalFn)
	}
}

// closedArrival is a closed-loop client's next request (j.closedArrivalFn,
// bound once per job). StopArrivals cancels it before clearing notify.
func (j *Job) closedArrival() {
	if j.admitArrival(j.eng.Now()) {
		j.notify()
	}
}

// AbandonCompute returns the consumed inputs to the ready pool after a
// preemption aborts the compute stage; the new session run is repopulated
// with the same tasks so no work is lost (§3.3). A serving job's whole
// micro-batch goes back to the front of the ready queue in arrival order.
func (j *Job) AbandonCompute() {
	j.ComputeRunning = false
	if len(j.active) > 0 {
		j.inputReady += len(j.active)
		j.ready.PushFront(j.active)
		j.active = j.active[:0]
		return
	}
	j.inputReady++
}

// StartExec launches the given subgraph through an executor. The job's
// private data pool handles preprocessing unless the caller overrides it.
func (j *Job) StartExec(sub *graph.Subgraph, cfg executor.Config, onDone func()) (*executor.Run, error) {
	cfg.Ctx = j.Ctx
	cfg.Machine = j.machine
	cfg.CPUClass = j.machine.CPU
	cfg.Bus = j.bus
	if cfg.DataPool == nil {
		cfg.DataPool = j.dataPool
	}
	cfg.Eager = j.Cfg.Eager
	return executor.Start(j.eng, sub, cfg, onDone)
}

// Crash marks the job dead.
func (j *Job) Crash(err error) {
	if j.CrashErr == nil {
		j.CrashErr = err
	}
	j.StopArrivals()
}

// Crashed reports whether the job died.
func (j *Job) Crashed() bool { return j.CrashErr != nil }
