// Package baseline implements the three comparison schedulers of §5 as
// policies of one runtime: multi-threaded TF (jobs share the GPU freely
// through separate streams), session-based time slicing in the style of
// Gandiva (one job owns the whole machine per session run), and NVIDIA
// MPS (free spatial sharing with per-process memory reservations). All
// three drive the same workload.Job runtime and device substrate as
// SwitchFlow, so differences in outcomes come from scheduling policy
// alone.
//
// Threaded TF is SwitchFlow with invariant 1 off, stream for stream, so
// core has no such option. Time slicing is invariant 2 off; it stays
// beside core's coupled path, which preempts, because it loses jobs on
// faults. internal/experiments' FuzzTimeSliceMatchesCoupledCore holds the
// two to one bus stream for jobs of one priority, and its exception table
// pins where they part: unequal priorities, higher-priority open-loop
// serving and fault plans.
//
// All three follow TF's process model: jobs share one runtime, and
// nothing migrates or restarts. A lost device kills every process on it,
// and a transient kernel/ECC error kills the process whose kernel or
// memory it corrupted. Input stalls gate new input-stage launches, the
// same as under SwitchFlow (the stall is in the storage layer, not the
// scheduler). Every job death is a KindJobLost on the machine's bus, and
// the fault counters aggregate from those and the injector's
// KindFaultInject events, as under SwitchFlow. The policies differ only
// in admission, pumping and memory:
//
//	policy      memory does not fit at admission   pump                      memory held
//	ThreadedTF  the job crashes on the next event  per job, ungated          weights; intermediates per step
//	TimeSlice   the job is refused                 one session at a time     weights; intermediates per step
//	MPS         the process dies at launch         per job, ungated          weights, intermediates and headroom for life
package baseline

import (
	"fmt"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/executor"
	"switchflow/internal/fault"
	"switchflow/internal/metrics"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
	"switchflow/internal/workload"
)

// Policy selects one of the three baselines.
type Policy int

const (
	// ThreadedTF is the paper's primary baseline: one TF process running
	// every model from its own thread, each with its own compute stream.
	// Nothing arbitrates GPU access — kernels from different jobs co-run
	// and contend — and memory is allocated on demand, so collocated jobs
	// can die of OOM mid-training (Figure 7 a-b).
	ThreadedTF Policy = iota
	// TimeSlice is session-based time slicing in the style of Gandiva
	// [51]: during one session run a single job owns the entire machine —
	// both the CPU input pipeline and the GPU — and jobs rotate
	// round-robin at session boundaries. There is no preemption (an
	// arriving high-priority request waits out the current session) and
	// no cross-job overlap of CPU and GPU stages, which is exactly the
	// inefficiency §2.2 and Figures 8-10 measure.
	TimeSlice
	// MPS models NVIDIA's Multi-Process Service: each job is its own
	// process whose kernels share the GPU spatially (the same contention
	// model as threaded TF), but device memory is NOT shared between
	// processes — each TF process's BFC allocator grabs its peak demand
	// plus growth headroom up front. When the aggregate of reservations
	// exceeds GPU capacity, the later process crashes at launch (Figure 7
	// c and §5.2.2: every training pair crashes on the 11 GB GPUs; only
	// the 32 GB V100 fits two).
	MPS
)

// policyNames name the policies; they also prefix the crash errors.
var policyNames = [...]string{ThreadedTF: "threaded-tf", TimeSlice: "time-slice", MPS: "mps"}

// String implements fmt.Stringer.
func (p Policy) String() string { return policyNames[p] }

// mpsAllocatorHeadroom scales the per-process intermediate reservation:
// TF's region-growing allocator over-reserves well beyond the live
// footprint, and under MPS that slack cannot be shared across processes.
const mpsAllocatorHeadroom = 0.7

// Scheduler runs jobs under one baseline policy. Preprocessing runs in
// each job's private tf.data pool, as TF datasets do.
type Scheduler struct {
	policy  Policy
	eng     *sim.Engine
	machine *device.Machine
	pool    *threadpool.Pool
	jobs    []*job
	ctxSeq  int
	// faults aggregates the fault counters from the machine's bus, where
	// the injector emits every fault and the scheduler every lost job.
	faults metrics.FaultSink
	// stallUntil gates input-stage starts during an injected input stall.
	stallUntil time.Duration

	// Time slicing only: next is the round-robin cursor, active the
	// session holder (nil while the machine is free), and sessionSeq
	// invalidates a session's release callback after a device loss
	// force-releases the machine.
	next       int
	active     *job
	sessionSeq int
}

// job is one admitted process (or thread, under threaded TF).
type job struct {
	*workload.Job
	dev     device.ID
	stopped bool
	// headroom is the allocator slack an MPS process reserves on dev
	// beyond its intermediates.
	headroom int64
}

// done reports whether the job will never run another stage.
func (j *job) done() bool { return j.stopped || j.Crashed() }

var _ fault.Handler = (*Scheduler)(nil)

// New creates a scheduler running policy on machine.
func New(eng *sim.Engine, machine *device.Machine, policy Policy) *Scheduler {
	s := &Scheduler{
		policy:  policy,
		eng:     eng,
		machine: machine,
		pool:    threadpool.New(eng, "global", machine.CPU.Cores),
	}
	machine.Bus().Subscribe(&s.faults, metrics.FaultSinkKinds...)
	return s
}

// AddJob admits a job onto cfg.Device. When its memory does not fit, the
// policy decides: threaded TF discovers the exhaustion lazily and the job
// crashes on the next event, time slicing refuses the job, and an MPS
// process dies at launch. A job that died is still returned, with
// CrashErr set.
func (s *Scheduler) AddJob(cfg workload.Config) (*workload.Job, error) {
	s.ctxSeq++
	w, err := workload.NewJob(s.eng, s.machine, s.ctxSeq, cfg)
	if err != nil {
		return nil, err
	}
	j := &job{Job: w, dev: cfg.Device}
	if err := s.load(j); err != nil {
		switch s.policy {
		case ThreadedTF:
			s.eng.After(0, func() { s.crash(j, err, "out of memory") })
		case TimeSlice:
			return nil, err
		case MPS:
			w.Crash(fmt.Errorf("%s: launch %s: %w", s.policy, cfg.Name, err))
			s.emitJobLost(j, "out of memory")
			s.release(j)
		}
		s.jobs = append(s.jobs, j)
		return w, nil
	}
	s.jobs = append(s.jobs, j)
	w.StartArrivals(func() { s.pump(j) })
	s.eng.After(0, func() { s.pump(j) })
	return w, nil
}

// load allocates what a job holds from admission: its weights, and under
// MPS the rest of the process reservation — the intermediate footprint
// plus allocator growth headroom — all or nothing.
func (s *Scheduler) load(j *job) error {
	if err := j.AllocWeights(j.dev); err != nil {
		return err
	}
	if s.policy != MPS {
		return nil
	}
	if err := j.AllocIntermediate(j.dev); err != nil {
		return err
	}
	if j.dev.Kind == device.KindGPU {
		slack := int64(float64(j.IntermediateBytes()) * mpsAllocatorHeadroom)
		if err := s.machine.GPU(j.dev.Index).Mem.Alloc(slack); err != nil {
			return err
		}
		j.headroom = slack
	}
	return nil
}

// StopJob halts a job's loop. A step in flight finishes; the job then
// returns its memory, as an exiting process would.
func (s *Scheduler) StopJob(w *workload.Job) {
	for _, j := range s.jobs {
		if j.Job == w {
			j.stopped = true
			w.StopArrivals()
			if !w.ComputeRunning {
				s.release(j)
			}
			return
		}
	}
}

// pump drives a job's pipeline. Under threaded TF and MPS nothing gates
// it: input prefetches freely and compute launches as soon as an input is
// ready. Under time slicing the machine is the unit of scheduling, so
// pump hands it to pumpSession.
func (s *Scheduler) pump(j *job) {
	if s.policy == TimeSlice {
		s.pumpSession()
		return
	}
	if j.done() {
		return
	}
	for !s.stalled() && j.CanStartInput() {
		s.runInput(j, func() { s.pump(j) })
		if j.Crashed() {
			return
		}
	}
	if !j.ComputeRunning && j.InputAvailable() {
		s.runCompute(j, func() { s.pump(j) })
	}
}

// pumpSession grants the free machine to the next job with work and runs
// one full session (input then compute, serialized).
func (s *Scheduler) pumpSession() {
	if s.active != nil {
		return
	}
	j := s.pickNext()
	if j == nil {
		return
	}
	s.active = j
	s.sessionSeq++
	seq := s.sessionSeq
	release := func() {
		if s.sessionSeq != seq {
			return // the session was force-released by a device loss
		}
		s.active = nil
		s.pumpSession()
	}
	if j.InputAvailable() {
		// A previous turn already staged the input; go straight to compute.
		s.runCompute(j, release)
		return
	}
	if !j.CanStartInput() || s.stalled() {
		release()
		return
	}
	s.runInput(j, func() {
		if j.done() {
			release()
			return
		}
		s.runCompute(j, release)
	})
}

// pickNext scans round-robin for a runnable job.
func (s *Scheduler) pickNext() *job {
	for i := 0; i < len(s.jobs); i++ {
		j := s.jobs[(s.next+i)%len(s.jobs)]
		if j.done() {
			continue
		}
		// During an input stall only jobs with an already-staged input can
		// use the machine; granting a session to one that must run its
		// input stage first would spin at the same instant.
		runnable := j.InputAvailable() ||
			(!s.stalled() && (j.HasWork() || j.CanStartInput()))
		if runnable {
			s.next = (s.next + i + 1) % len(s.jobs)
			return j
		}
	}
	return nil
}

// runInput executes the job's CPU input stage; for all-CPU placements the
// stage is free. onDone always fires, inline when the stage is trivial or
// the job crashed.
func (s *Scheduler) runInput(j *job, onDone func()) {
	v, err := j.Version(j.dev)
	if err != nil {
		s.crash(j, err, "no graph version")
		onDone()
		return
	}
	j.BeginInput()
	if v.Input == nil {
		j.FinishInput()
		onDone()
		return
	}
	_, err = j.StartExec(v.Input, executor.Config{Pool: s.pool}, func() {
		j.FinishInput()
		onDone()
	})
	if err != nil {
		s.crash(j, err, "input start failed")
		onDone()
	}
}

// runCompute executes the job's compute stage, sized to the micro-batch
// the job's batcher hands it (baselines batch greedily — whatever is
// ready launches, with no max-wait hold). Each step allocates its
// intermediates, except under MPS, whose reservation already holds them.
// A failed allocation crashes the job (the TF-style runtime OOM of
// Figure 7). onDone always fires, inline when the job crashed.
func (s *Scheduler) runCompute(j *job, onDone func()) {
	fail := func(err error, why string) {
		s.crash(j, err, why)
		onDone()
	}
	v, err := j.NextComputeVersion(j.dev)
	if err != nil {
		fail(err, "no graph version")
		return
	}
	if s.policy != MPS {
		if err := j.AllocIntermediate(j.dev); err != nil {
			fail(err, "out of memory")
			return
		}
	}
	j.BeginCompute()
	cfg := executor.Config{Pool: s.pool, Stream: j.Stream(j.dev)}
	_, err = j.StartExec(v.Compute, cfg, func() {
		if s.policy != MPS {
			j.FreeIntermediate(j.dev)
		}
		j.FinishCompute()
		if j.stopped {
			s.release(j)
		}
		onDone()
	})
	if err != nil {
		fail(err, "compute start failed")
	}
}

// crash kills a job and returns its memory, like an exiting process; why
// tags its JobLost event.
func (s *Scheduler) crash(j *job, err error, why string) {
	j.Crash(fmt.Errorf("job %s: %w", j.Cfg.Name, err))
	s.emitJobLost(j, why)
	s.release(j)
}

// release returns everything the job holds on its device: intermediates,
// weights and MPS headroom.
func (s *Scheduler) release(j *job) {
	j.FreeIntermediate(j.dev)
	j.FreeWeights(j.dev)
	if j.headroom > 0 {
		s.machine.GPU(j.dev.Index).Mem.Free(j.headroom)
		j.headroom = 0
	}
}

// HandleFault implements fault.Handler: device loss and transient errors
// kill the affected jobs outright.
func (s *Scheduler) HandleFault(ev fault.Event) {
	switch ev.Kind {
	case fault.KindDeviceLost:
		// The device's memory pool was invalidated wholesale, so its
		// accounting is dropped, not freed.
		for _, j := range s.jobs {
			j.ForgetDevice(ev.Device)
			if j.dev != ev.Device {
				continue
			}
			j.headroom = 0
			if j.done() {
				continue
			}
			j.Crash(fmt.Errorf("%s: %s: %w (%v)", s.policy, j.Cfg.Name, fault.ErrDeviceLost, ev.Device))
			s.emitJobLost(j, "device lost")
		}
		// The active session's kernels were dropped with the device, so its
		// completion callback will never fire; force-release the machine or
		// every surviving job hangs behind a dead session.
		if s.active != nil && s.active.dev == ev.Device {
			s.sessionSeq++
			s.active = nil
			s.eng.After(0, s.pumpSession)
		}
	case fault.KindTransient:
		if j := s.transientVictim(ev.Device); j != nil {
			// Under time slicing the victim's in-flight kernels complete on
			// the (healthy) device and its session releases normally.
			s.crash(j, fault.ErrTransient, "transient")
		}
	case fault.KindInputStall:
		s.stallInputs(ev.Duration)
	case fault.KindDegraded:
		// Hardware effect only.
	}
}

// FaultStats returns the fault and job-loss counters, aggregated from the
// machine's bus.
func (s *Scheduler) FaultStats() metrics.FaultCounters { return s.faults.Counters() }

// emitJobLost publishes a job death.
func (s *Scheduler) emitJobLost(j *job, why string) {
	s.machine.Bus().Emit(obs.Event{
		Kind:   obs.KindJobLost,
		Ctx:    j.Ctx,
		Job:    j.Cfg.Name,
		Device: j.dev.String(),
		Name:   why,
	})
}

// transientVictim picks the job the fault corrupts: the first job
// (admission order, deterministic) computing on dev, or with state
// resident there — ECC errors strike resident memory, not only running
// kernels.
func (s *Scheduler) transientVictim(dev device.ID) *job {
	for _, j := range s.jobs {
		if j.done() || j.dev != dev {
			continue
		}
		if j.ComputeRunning || j.WeightsOn(dev) {
			return j
		}
	}
	return nil
}

// stalled reports whether an injected input stall is in force.
func (s *Scheduler) stalled() bool { return s.eng.Now() < s.stallUntil }

// stallInputs extends the stall window and re-pumps every job at its end
// (skipped when a longer stall supersedes this one). Under time slicing
// the first pump grants the machine and the rest find it busy, or find
// nothing runnable, as the first did.
func (s *Scheduler) stallInputs(d time.Duration) {
	until := s.eng.Now() + d
	if until <= s.stallUntil {
		return
	}
	s.stallUntil = until
	s.eng.Schedule(until, func() {
		if s.stalled() {
			return
		}
		for _, j := range s.jobs {
			s.pump(j)
		}
	})
}
