// Package scenario is the one runner of a described single-machine run:
// Run executes a Scenario (a machine, a scheduler, jobs, a virtual-time
// window, and optionally traffic, faults and timed ops). It links no
// net/http; internal/control serves its wire types over HTTP.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"switchflow"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
)

// Scenario is a declarative collocation experiment: a machine, a
// scheduler, jobs (and optional shared-input groups), a virtual-time
// window, and optionally traffic, faults and timed ops. It is the one
// description of a run: swrun lowers its flags into one.
type Scenario struct {
	Machine        string         `json:"machine"`
	Scheduler      string         `json:"scheduler"`
	DurationMillis float64        `json:"durationMillis"`
	Jobs           []JobRequest   `json:"jobs"`
	Groups         [][]JobRequest `json:"groups,omitempty"`
	// Traffic, when present, drives every serve job that is neither
	// training nor saturated with an open-loop trace in place of its own
	// arrival clock. A saturated job has no arrival clock to replace.
	Traffic *TrafficRequest `json:"traffic,omitempty"`
	// Faults, when present, attaches a fault plan to the scheduler.
	Faults *FaultsRequest `json:"faults,omitempty"`
	// Ops are administrative operations applied at virtual instants, in
	// time order (ties in list order). They need the switchflow
	// scheduler, must fall inside the window, and cannot be combined with
	// a traffic block.
	Ops []OpRequest `json:"ops,omitempty"`
}

// FaultsRequest is the scenario's "faults" block: a seeded random fault
// mix over the window, explicit device losses, and SwitchFlow's periodic
// host-checkpoint interval.
type FaultsRequest struct {
	// Seed, when non-zero, draws RandomFaultPlan(seed, window, gpus).
	Seed     int64            `json:"seed,omitempty"`
	LoseGPUs []LoseGPURequest `json:"loseGpus,omitempty"`
	// CheckpointEveryMillis overrides DefaultCheckpointEvery; zero keeps it.
	CheckpointEveryMillis float64 `json:"checkpointEveryMillis,omitempty"`
}

// LoseGPURequest schedules one device loss.
type LoseGPURequest struct {
	GPU      int     `json:"gpu"`
	AtMillis float64 `json:"atMillis"`
}

// OpRequest is one timed operation: the run advances to atMillis and then
// applies it. Op is "resize" (job, vnodes), "drain" or "undrain" (gpu),
// or "rebind" (job, vnode, gpu); the fields are the bodies of the
// matching HTTP routes. Job names a job by its unique name.
type OpRequest struct {
	AtMillis float64 `json:"atMillis"`
	Op       string  `json:"op"`
	Job      string  `json:"job,omitempty"`
	GPU      int     `json:"gpu"`
	VNodes   int     `json:"vnodes,omitempty"`
	VNode    int     `json:"vnode,omitempty"`
}

// JobRequest is one job of a scenario, and the body of the server's job
// submission.
type JobRequest struct {
	Name         string `json:"name"`
	Model        string `json:"model"`
	Batch        int    `json:"batch"`
	Train        bool   `json:"train"`
	Priority     int    `json:"priority"`
	GPU          int    `json:"gpu"`
	FallbackGPUs []int  `json:"fallbackGpus,omitempty"`
	FallbackCPU  bool   `json:"fallbackCpu,omitempty"`
	// Millisecond fields are floats, so sub-millisecond durations survive.
	ServeEveryMS float64 `json:"serveEveryMillis,omitempty"`
	ClosedLoop   bool    `json:"closedLoop,omitempty"`
	Saturated    bool    `json:"saturated,omitempty"`
	// PoissonArrivals draws exponential inter-arrival times with mean
	// serveEveryMillis, seeded by arrivalSeed.
	PoissonArrivals bool  `json:"poissonArrivals,omitempty"`
	ArrivalSeed     int64 `json:"arrivalSeed,omitempty"`
	// SLOMillis sets the serving latency objective; admission control
	// sheds requests whose projected queueing delay exceeds it.
	SLOMillis float64 `json:"sloMillis,omitempty"`
	// MaxBatch enables dynamic micro-batching up to this many requests
	// per compute launch; BatchWaitMillis bounds how long a sub-target
	// batch may wait for more requests.
	MaxBatch        int     `json:"maxBatch,omitempty"`
	BatchWaitMillis float64 `json:"batchWaitMillis,omitempty"`
	// VNodes requests elastic virtual-node placement: the batch splits
	// across these GPUs and the binding can change at runtime via the
	// resize/rebind/drain endpoints. When set, vnodes[0] is the primary
	// device and the gpu field is ignored.
	VNodes []int `json:"vnodes,omitempty"`
	// Gang makes an elastic training job a synchronous data-parallel gang:
	// one replica per virtual node, meeting at a topology-priced ring
	// all-reduce step barrier; the scheduler suspends and resumes the gang
	// as one unit. Width comes from replicas (consecutive GPUs starting at
	// gpu) or an explicit vnodes list.
	Gang bool `json:"gang,omitempty"`
	// Replicas is the gang width when vnodes is not set.
	Replicas int `json:"replicas,omitempty"`
}

// JobInfo is the per-job status payload.
type JobInfo struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Model      string  `json:"model"`
	Device     string  `json:"device"`
	Iterations int     `json:"iterations"`
	Requests   int     `json:"requests"`
	P95Millis  float64 `json:"p95Millis"`
	P99Millis  float64 `json:"p99Millis"`
	// Serving request accounting: offered arrivals, admission-control
	// sheds, served completions, SLO-met completions, micro-batches
	// formed, and the derived attainment and mean batch size.
	Offered          int     `json:"offered,omitempty"`
	Shed             int     `json:"shed,omitempty"`
	Served           int     `json:"served,omitempty"`
	SLOMet           int     `json:"sloMet,omitempty"`
	Batches          int     `json:"batches,omitempty"`
	SLOAttainmentPct float64 `json:"sloAttainmentPct,omitempty"`
	MeanBatch        float64 `json:"meanBatch,omitempty"`
	// Elastic placement: virtual-node count and current binding (empty
	// for legacy single-device jobs), plus the restart counter that the
	// elastic path keeps at zero.
	VNodes   int    `json:"vnodes,omitempty"`
	Binding  string `json:"binding,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	// Gang reports a synchronous data-parallel gang job (replicas meet at
	// a ring all-reduce barrier and preempt/resume as one unit).
	Gang    bool   `json:"gang,omitempty"`
	Crashed bool   `json:"crashed"`
	Error   string `json:"error,omitempty"`
	// Fields for swrun's text report, kept out of the JSON payload;
	// Throughput is zero over HTTP, which has no window.
	P95        time.Duration `json:"-"`
	P99        time.Duration `json:"-"`
	Throughput float64       `json:"-"`
}

// Result reports per-job outcomes of a scenario run.
type Result struct {
	Machine     string    `json:"machine"`
	Scheduler   string    `json:"scheduler"`
	Window      string    `json:"window"`
	Jobs        []JobInfo `json:"jobs"`
	Preemptions int       `json:"preemptions"`
	Migrations  int       `json:"migrations"`
	// TrafficOffered/TrafficAdmitted summarize the open-loop trace when
	// the scenario had a traffic block; the difference was shed at
	// admission.
	TrafficOffered  int `json:"trafficOffered,omitempty"`
	TrafficAdmitted int `json:"trafficAdmitted,omitempty"`
	// Faults are the fault-injection and recovery counters; nil without a
	// faults block.
	Faults *switchflow.FaultStats `json:"faults,omitempty"`
	// GrantP95 is SwitchFlow's 95th-percentile GPU-grant latency, kept
	// out of the JSON so existing outputs stay byte-identical.
	GrantP95 time.Duration `json:"-"`
}

// Millis converts a duration to a millisecond wire field. FromMillis
// inverts it exactly for durations below 2^51 ns (about 26 days).
func Millis(d time.Duration) float64 { return float64(d) / 1e6 }

// FromMillis converts the millisecond wire field named field to a
// duration, rounding to the nearest nanosecond. A value time.Duration
// cannot hold is an error: Go leaves the conversion of an out-of-range
// float implementation-defined, so it must never reach it.
func FromMillis(field string, ms float64) (time.Duration, error) {
	ns := math.Round(ms * 1e6)
	if !(math.Abs(ns) < 1<<63) {
		return 0, fmt.Errorf("%s %v is out of range: a duration holds at most ±%v ms",
			field, ms, math.MaxInt64/int64(time.Millisecond))
	}
	return sim.Nanos(ns), nil
}

// millis converts several millisecond wire fields, keeping the first
// error, so a request converts field by field and checks once.
type millis struct{ err error }

func (m *millis) field(name string, ms float64) time.Duration {
	d, err := FromMillis(name, ms)
	if m.err == nil {
		m.err = err
	}
	return d
}

// DecodeStrict decodes one JSON value into v, rejecting fields v does not
// declare, so a misspelled field is an error rather than a silent default.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Parse decodes and validates a scenario from JSON.
func Parse(r io.Reader) (Scenario, error) {
	var sc Scenario
	if err := DecodeStrict(r, &sc); err != nil {
		return Scenario{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if _, err := sc.window(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// window checks what every scenario needs, however it was built, and
// returns its virtual-time window.
func (sc Scenario) window() (time.Duration, error) {
	if !(sc.DurationMillis > 0) {
		return 0, fmt.Errorf("scenario: durationMillis must be positive, got %v", sc.DurationMillis)
	}
	window, err := FromMillis("durationMillis", sc.DurationMillis)
	if err != nil {
		return 0, fmt.Errorf("scenario: %w", err)
	}
	if len(sc.Jobs) == 0 && len(sc.Groups) == 0 {
		return 0, fmt.Errorf("scenario: no jobs")
	}
	return window, nil
}

// options builds the NewScheduler options for the faults block.
func (f *FaultsRequest) options(window time.Duration, gpus int) ([]switchflow.Option, error) {
	if f == nil {
		return nil, nil
	}
	var ms millis
	plan := switchflow.NewFaultPlan()
	if f.Seed != 0 {
		plan = switchflow.RandomFaultPlan(f.Seed, window, gpus)
	}
	for _, l := range f.LoseGPUs {
		plan.LoseGPU(ms.field("loseGpus atMillis", l.AtMillis), l.GPU)
	}
	opts := []switchflow.Option{switchflow.WithFaultPlan(plan)}
	if f.CheckpointEveryMillis != 0 {
		opts = append(opts, switchflow.WithCheckpointEvery(ms.field("checkpointEveryMillis", f.CheckpointEveryMillis)))
	}
	if ms.err != nil {
		return nil, fmt.Errorf("scenario: faults %w", ms.err)
	}
	return opts, nil
}

// opNeedsJob maps each op to whether it names a job.
var opNeedsJob = map[string]bool{"resize": true, "rebind": true, "drain": false, "undrain": false}

// Apply runs the op against the scheduler; job is nil for GPU ops. A
// resize to the job's current vnode count is a no-op.
func (op OpRequest) Apply(sf *switchflow.SwitchFlowScheduler, job *switchflow.Job) error {
	switch op.Op {
	case "resize":
		switch n := op.VNodes; {
		case n > job.VNodes():
			return sf.Grow(job, n)
		case n < job.VNodes():
			return sf.Shrink(job, n)
		}
		return nil
	case "rebind":
		return sf.Rebind(job, op.VNode, op.GPU)
	case "drain":
		return sf.Drain(op.GPU)
	default:
		return sf.Undrain(op.GPU)
	}
}

// MachineSpec resolves a machine name, case-insensitively: "v100" (the
// default, also ""), "nvlink", "2gpu", "tx2", or one GPU's name.
func MachineSpec(name string) (switchflow.MachineSpec, error) {
	switch strings.ToLower(name) {
	case "v100", "":
		return switchflow.V100Server(), nil
	case "nvlink":
		return switchflow.NVLinkV100Server(), nil
	case "2gpu":
		return switchflow.TwoGPUServer(), nil
	case "tx2":
		return switchflow.JetsonTX2(), nil
	default:
		return switchflow.SingleGPU(name)
	}
}

// GPUCount returns how many GPUs the named machine has.
func GPUCount(machine string) (int, error) {
	spec, err := MachineSpec(machine)
	if err != nil {
		return 0, err
	}
	return switchflow.NewSimulation(spec).GPUCount(), nil
}

// policies are the scheduler names ParsePolicy accepts.
var policies = map[string]switchflow.Policy{
	"switchflow": switchflow.PolicySwitchFlow, "": switchflow.PolicySwitchFlow,
	"threaded": switchflow.PolicyThreadedTF, "timeslice": switchflow.PolicyTimeSlice, "mps": switchflow.PolicyMPS,
}

// ParsePolicy resolves a scheduler name: "switchflow" (the default, also
// ""), "threaded", "timeslice" or "mps".
func ParsePolicy(name string) (switchflow.Policy, error) {
	if p, ok := policies[name]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q", name)
}

// Run executes the scenario in virtual time and returns the
// outcomes. observe, when non-nil, receives the simulation's event bus
// once, before any scheduler or job exists, so a sink it subscribes sees
// every event of the run from the first.
func Run(sc Scenario, observe func(*obs.Bus)) (Result, error) {
	window, err := sc.window()
	if err != nil {
		return Result{}, err
	}
	spec, err := MachineSpec(sc.Machine)
	if err != nil {
		return Result{}, err
	}
	sim := switchflow.NewSimulation(spec)
	if observe != nil {
		observe(sim.EventBus())
	}

	policy, err := ParsePolicy(sc.Scheduler)
	if err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	faults, err := sc.Faults.options(window, sim.GPUCount())
	if err != nil {
		return Result{}, err
	}
	sched, err := sim.NewScheduler(policy, faults...)
	if err != nil {
		return Result{}, err
	}
	sf, _ := sched.(*switchflow.SwitchFlowScheduler)

	var models []string
	var jobs, tenants []*switchflow.Job
	byName := make(map[string][]*switchflow.Job)
	add := func(req JobRequest, job *switchflow.Job) {
		models = append(models, req.Model)
		jobs = append(jobs, job)
		byName[job.Name()] = append(byName[job.Name()], job)
		if sc.tenant(req) {
			tenants = append(tenants, job)
		}
	}
	for _, req := range sc.Jobs {
		spec, err := sc.jobSpec(req)
		if err != nil {
			return Result{}, err
		}
		job, err := sched.AddJob(spec)
		if err != nil {
			return Result{}, err
		}
		add(req, job)
	}
	for _, groupReqs := range sc.Groups {
		if sf == nil {
			return Result{}, fmt.Errorf("scenario: groups need the switchflow scheduler")
		}
		specs := make([]switchflow.JobSpec, len(groupReqs))
		for i, req := range groupReqs {
			if specs[i], err = sc.jobSpec(req); err != nil {
				return Result{}, err
			}
		}
		group, err := sf.AddSharedGroup(specs)
		if err != nil {
			return Result{}, err
		}
		for i, job := range group.Jobs() {
			add(groupReqs[i], job)
		}
	}

	var offered, admitted int
	switch {
	case sc.Traffic != nil:
		if len(sc.Ops) > 0 {
			return Result{}, fmt.Errorf("scenario: ops cannot be combined with traffic")
		}
		if offered, admitted, err = driveTraffic(sim, *sc.Traffic, tenants, window); err != nil {
			return Result{}, err
		}
	case len(sc.Ops) > 0:
		if sf == nil {
			return Result{}, fmt.Errorf("scenario: ops need the switchflow scheduler, not %s", sched.Name())
		}
		if err := runOps(sim, sf, byName, sc.Ops, window); err != nil {
			return Result{}, err
		}
	default:
		sim.RunFor(window)
	}

	result := Result{
		Machine:         spec.Name(),
		Scheduler:       sched.Name(),
		Window:          window.String(),
		TrafficOffered:  offered,
		TrafficAdmitted: admitted,
	}
	for i, job := range jobs {
		result.Jobs = append(result.Jobs, NewJobInfo(i+1, models[i], job, sf, window))
	}
	if sf != nil {
		result.Preemptions = sf.Preemptions()
		result.Migrations = sf.Migrations()
		result.GrantP95 = sf.PreemptionP95()
	}
	if sc.Faults != nil {
		st := sched.FaultStats()
		result.Faults = &st
	}
	return result, nil
}

// runOps runs the simulation to the end of the window, applying the ops
// in time order on the way. Every op is checked before the clock moves.
func runOps(sim *switchflow.Simulation, sf *switchflow.SwitchFlowScheduler,
	byName map[string][]*switchflow.Job, ops []OpRequest, window time.Duration) error {
	type timedOp struct {
		OpRequest
		at     time.Duration
		target *switchflow.Job
	}
	timed := make([]timedOp, len(ops))
	for i, op := range ops {
		at, err := FromMillis("atMillis", op.AtMillis)
		if err != nil {
			return fmt.Errorf("scenario: %s %w", op.Op, err)
		}
		timed[i] = timedOp{OpRequest: op, at: at}
	}
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].at < timed[j].at })
	for i, op := range timed {
		needsJob, known := opNeedsJob[op.Op]
		switch {
		case !known:
			return fmt.Errorf("scenario: unknown op %q", op.Op)
		case op.at > window:
			return fmt.Errorf("scenario: %s at %v is past the %v window", op.Op, op.at, window)
		case needsJob && len(byName[op.Job]) != 1:
			return fmt.Errorf("scenario: %s names job %q, carried by %d jobs; want exactly one",
				op.Op, op.Job, len(byName[op.Job]))
		case needsJob:
			timed[i].target = byName[op.Job][0]
		}
	}
	for _, op := range timed {
		sim.RunUntil(op.at)
		if err := op.Apply(sf, op.target); err != nil {
			return fmt.Errorf("scenario: %s at %v: %w", op.Op, op.at, err)
		}
	}
	sim.RunUntil(window)
	return nil
}

// tenant reports whether the job req describes is a tenant of the traffic
// block (see Scenario.Traffic); a tenant idles between the trace's Offer
// calls.
func (sc Scenario) tenant(req JobRequest) bool {
	return sc.Traffic != nil && !req.Train && !req.Saturated
}

// jobSpec converts the request to the facade's JobSpec, request-driven
// for a tenant.
func (sc Scenario) jobSpec(req JobRequest) (switchflow.JobSpec, error) {
	spec, err := req.Spec()
	if err != nil {
		return spec, fmt.Errorf("scenario: %w", err)
	}
	if sc.tenant(req) {
		spec.ServeEvery = 0
		spec.ClosedLoop = false
		spec.PoissonArrivals = false
		spec.RequestDriven = true
	}
	return spec, nil
}

// NewJobInfo builds the wire payload for one job. Device is filled when sf,
// the SwitchFlow scheduler, can name it; Throughput is over window, zero
// when there is none.
func NewJobInfo(id int, model string, job *switchflow.Job, sf *switchflow.SwitchFlowScheduler, window time.Duration) JobInfo {
	serving := job.ServingStats()
	info := JobInfo{
		ID:               id,
		Name:             job.Name(),
		Model:            model,
		Throughput:       job.Throughput(window),
		Iterations:       job.Iterations(),
		Requests:         job.Requests(),
		P95Millis:        job.P95Latency().Seconds() * 1e3,
		P99Millis:        job.P99Latency().Seconds() * 1e3,
		P95:              job.P95Latency(),
		P99:              job.P99Latency(),
		Offered:          serving.Offered,
		Shed:             serving.Shed,
		Served:           serving.Served,
		SLOMet:           serving.SLOMet,
		Batches:          serving.Batches,
		SLOAttainmentPct: job.SLOAttainment(),
		MeanBatch:        job.MeanBatch(),
		Crashed:          job.Crashed(),
	}
	if sf != nil {
		info.Device = sf.JobDeviceName(job)
	}
	if job.Elastic() {
		info.VNodes = job.VNodes()
		info.Binding = job.Binding()
		info.Restarts = job.Restarts()
		info.Gang = job.Gang()
	}
	if err := job.Err(); err != nil {
		info.Error = err.Error()
	}
	return info
}

// Spec converts the request to the facade's JobSpec. Its only error is
// a millisecond field out of range.
func (req JobRequest) Spec() (switchflow.JobSpec, error) {
	var ms millis
	spec := switchflow.JobSpec{
		Name:            req.Name,
		Model:           req.Model,
		Batch:           req.Batch,
		Train:           req.Train,
		Priority:        req.Priority,
		ServeEvery:      ms.field("serveEveryMillis", req.ServeEveryMS),
		ClosedLoop:      req.ClosedLoop,
		Saturated:       req.Saturated,
		PoissonArrivals: req.PoissonArrivals,
		ArrivalSeed:     req.ArrivalSeed,
		SLO:             ms.field("sloMillis", req.SLOMillis),
		MaxBatch:        req.MaxBatch,
		BatchWait:       ms.field("batchWaitMillis", req.BatchWaitMillis),
		Gang:            req.Gang,
		Replicas:        req.Replicas,
	}
	// The gpu/fallbackGpus/fallbackCpu wire fields always lower into a
	// Placement; with vnodes set, vnodes[0] is the primary.
	spec.Placement = switchflow.Placement{
		Device:    req.GPU,
		Fallbacks: req.FallbackGPUs,
		AllowCPU:  req.FallbackCPU,
		VNodes:    req.VNodes,
	}
	if len(req.VNodes) > 0 {
		spec.Placement.Device = req.VNodes[0]
	}
	if ms.err != nil {
		return spec, fmt.Errorf("job %q: %w", req.Name, ms.err)
	}
	return spec, nil
}
