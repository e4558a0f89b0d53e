package control

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"switchflow"
	"switchflow/internal/obs"
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

// ScenarioResult reports per-job outcomes of a scenario run.
type ScenarioResult struct {
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

// Millis converts a duration to a millisecond wire field. fromMillis
// inverts it exactly for durations below 2^51 ns (about 26 days).
func Millis(d time.Duration) float64 { return float64(d) / 1e6 }

// fromMillis converts the millisecond wire field named field to a
// duration, rounding to the nearest nanosecond. A value time.Duration
// cannot hold is an error: Go leaves the conversion of an out-of-range
// float implementation-defined, so it must never reach it.
func fromMillis(field string, ms float64) (time.Duration, error) {
	ns := math.Round(ms * 1e6)
	if !(math.Abs(ns) < 1<<63) {
		return 0, fmt.Errorf("%s %v is out of range: a duration holds at most ±%v ms",
			field, ms, math.MaxInt64/int64(time.Millisecond))
	}
	return time.Duration(ns), nil
}

// millis converts several millisecond wire fields, keeping the first
// error, so a request converts field by field and checks once.
type millis struct{ err error }

func (m *millis) field(name string, ms float64) time.Duration {
	d, err := fromMillis(name, ms)
	if m.err == nil {
		m.err = err
	}
	return d
}

// decodeStrict decodes one JSON value into v, rejecting fields v does not
// declare, so a misspelled field is an error rather than a silent default.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// ParseScenario decodes and validates a scenario from JSON.
func ParseScenario(r io.Reader) (Scenario, error) {
	var sc Scenario
	if err := decodeStrict(r, &sc); err != nil {
		return Scenario{}, fmt.Errorf("control: decode scenario: %w", err)
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
		return 0, fmt.Errorf("control: scenario durationMillis must be positive, got %v", sc.DurationMillis)
	}
	window, err := fromMillis("durationMillis", sc.DurationMillis)
	if err != nil {
		return 0, fmt.Errorf("control: scenario %w", err)
	}
	if len(sc.Jobs) == 0 && len(sc.Groups) == 0 {
		return 0, fmt.Errorf("control: scenario has no jobs")
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
		return nil, fmt.Errorf("control: faults %w", ms.err)
	}
	return opts, nil
}

// opNeedsJob maps each op to whether it names a job.
var opNeedsJob = map[string]bool{"resize": true, "rebind": true, "drain": false, "undrain": false}

// apply runs the op against the scheduler; job is nil for GPU ops. A
// resize to the job's current vnode count is a no-op.
func (op OpRequest) apply(sf *switchflow.SwitchFlowScheduler, job *switchflow.Job) error {
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

// RunScenario executes the scenario in virtual time and returns the
// outcomes. observe, when non-nil, receives the simulation's event bus
// once, before any scheduler or job exists, so a sink it subscribes sees
// every event of the run from the first.
func RunScenario(sc Scenario, observe func(*obs.Bus)) (ScenarioResult, error) {
	window, err := sc.window()
	if err != nil {
		return ScenarioResult{}, err
	}
	spec, err := MachineSpec(sc.Machine)
	if err != nil {
		return ScenarioResult{}, err
	}
	sim := switchflow.NewSimulation(spec)
	if observe != nil {
		observe(sim.EventBus())
	}

	policy, err := ParsePolicy(sc.Scheduler)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("control: %w", err)
	}
	faults, err := sc.Faults.options(window, sim.GPUCount())
	if err != nil {
		return ScenarioResult{}, err
	}
	sched, err := sim.NewScheduler(policy, faults...)
	if err != nil {
		return ScenarioResult{}, err
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
			return ScenarioResult{}, err
		}
		job, err := sched.AddJob(spec)
		if err != nil {
			return ScenarioResult{}, err
		}
		add(req, job)
	}
	for _, groupReqs := range sc.Groups {
		if sf == nil {
			return ScenarioResult{}, fmt.Errorf("control: groups need the switchflow scheduler")
		}
		specs := make([]switchflow.JobSpec, len(groupReqs))
		for i, req := range groupReqs {
			if specs[i], err = sc.jobSpec(req); err != nil {
				return ScenarioResult{}, err
			}
		}
		group, err := sf.AddSharedGroup(specs)
		if err != nil {
			return ScenarioResult{}, err
		}
		for i, job := range group.Jobs() {
			add(groupReqs[i], job)
		}
	}

	var offered, admitted int
	switch {
	case sc.Traffic != nil:
		if len(sc.Ops) > 0 {
			return ScenarioResult{}, fmt.Errorf("control: ops cannot be combined with traffic")
		}
		if offered, admitted, err = driveTraffic(sim, *sc.Traffic, tenants, window); err != nil {
			return ScenarioResult{}, err
		}
	case len(sc.Ops) > 0:
		if sf == nil {
			return ScenarioResult{}, fmt.Errorf("control: ops need the switchflow scheduler, not %s", sched.Name())
		}
		if err := runOps(sim, sf, byName, sc.Ops, window); err != nil {
			return ScenarioResult{}, err
		}
	default:
		sim.RunFor(window)
	}

	result := ScenarioResult{
		Machine:         spec.Name(),
		Scheduler:       sched.Name(),
		Window:          window.String(),
		TrafficOffered:  offered,
		TrafficAdmitted: admitted,
	}
	for i, job := range jobs {
		result.Jobs = append(result.Jobs, jobInfo(i+1, models[i], job, sf, window))
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
		at, err := fromMillis("atMillis", op.AtMillis)
		if err != nil {
			return fmt.Errorf("control: %s %w", op.Op, err)
		}
		timed[i] = timedOp{OpRequest: op, at: at}
	}
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].at < timed[j].at })
	for i, op := range timed {
		needsJob, known := opNeedsJob[op.Op]
		switch {
		case !known:
			return fmt.Errorf("control: unknown op %q", op.Op)
		case op.at > window:
			return fmt.Errorf("control: %s at %v is past the %v window", op.Op, op.at, window)
		case needsJob && len(byName[op.Job]) != 1:
			return fmt.Errorf("control: %s names job %q, carried by %d jobs; want exactly one",
				op.Op, op.Job, len(byName[op.Job]))
		case needsJob:
			timed[i].target = byName[op.Job][0]
		}
	}
	for _, op := range timed {
		sim.RunUntil(op.at)
		if err := op.apply(sf, op.target); err != nil {
			return fmt.Errorf("control: %s at %v: %w", op.Op, op.at, err)
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
	spec, err := toSpec(req)
	if err != nil {
		return spec, fmt.Errorf("control: %w", err)
	}
	if sc.tenant(req) {
		spec.ServeEvery = 0
		spec.ClosedLoop = false
		spec.PoissonArrivals = false
		spec.RequestDriven = true
	}
	return spec, nil
}
