package control

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"switchflow"
)

// Scenario is a declarative collocation experiment: a machine, a
// scheduler, a set of jobs (and optional shared-input groups), and a
// virtual-time window.
type Scenario struct {
	Machine        string         `json:"machine"`
	Scheduler      string         `json:"scheduler"`
	DurationMillis int            `json:"durationMillis"`
	Jobs           []JobRequest   `json:"jobs"`
	Groups         [][]JobRequest `json:"groups,omitempty"`
	// Traffic, when present, drives every non-training job with an
	// open-loop trace instead of the jobs' own arrival clocks (their
	// serveEvery/closedLoop/saturated settings are overridden).
	Traffic *TrafficRequest `json:"traffic,omitempty"`
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
}

// ParseScenario decodes a scenario from JSON.
func ParseScenario(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("control: decode scenario: %w", err)
	}
	if sc.DurationMillis <= 0 {
		return Scenario{}, fmt.Errorf("control: scenario durationMillis must be positive")
	}
	if len(sc.Jobs) == 0 && len(sc.Groups) == 0 {
		return Scenario{}, fmt.Errorf("control: scenario has no jobs")
	}
	return sc, nil
}

// ToSpec converts the request to the facade's JobSpec.
func (r JobRequest) ToSpec() switchflow.JobSpec { return toSpec(r) }

// RunScenario executes the scenario in virtual time and returns the
// outcomes.
func RunScenario(sc Scenario) (ScenarioResult, error) {
	spec, err := MachineSpec(sc.Machine)
	if err != nil {
		return ScenarioResult{}, err
	}
	sim := switchflow.NewSimulation(spec)

	policy, err := ParsePolicy(sc.Scheduler)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("control: %w", err)
	}
	sched, err := sim.NewScheduler(policy)
	if err != nil {
		return ScenarioResult{}, err
	}
	sf, _ := sched.(*switchflow.SwitchFlowScheduler)

	// requestDriven rewrites a spec for trace-driven arrivals: the
	// traffic block owns the clock, so the job must sit idle between
	// Offer calls.
	requestDriven := func(req JobRequest) switchflow.JobSpec {
		s := req.ToSpec()
		if sc.Traffic != nil && !req.Train {
			s.ServeEvery = 0
			s.ClosedLoop = false
			s.Saturated = false
			s.PoissonArrivals = false
			s.RequestDriven = true
		}
		return s
	}

	type namedJob struct {
		model string
		job   *switchflow.Job
	}
	var jobs []namedJob
	var tenantNames []string
	var tenantJobs []*switchflow.Job
	for _, req := range sc.Jobs {
		job, err := sched.AddJob(requestDriven(req))
		if err != nil {
			return ScenarioResult{}, err
		}
		jobs = append(jobs, namedJob{model: req.Model, job: job})
		if sc.Traffic != nil && !req.Train {
			tenantNames = append(tenantNames, job.Name())
			tenantJobs = append(tenantJobs, job)
		}
	}
	for _, groupReqs := range sc.Groups {
		if sf == nil {
			return ScenarioResult{}, fmt.Errorf("control: groups need the switchflow scheduler")
		}
		specs := make([]switchflow.JobSpec, len(groupReqs))
		for i, req := range groupReqs {
			specs[i] = requestDriven(req)
		}
		group, err := sf.AddSharedGroup(specs)
		if err != nil {
			return ScenarioResult{}, err
		}
		for i, job := range group.Jobs() {
			jobs = append(jobs, namedJob{model: groupReqs[i].Model, job: job})
			if sc.Traffic != nil && !groupReqs[i].Train {
				tenantNames = append(tenantNames, job.Name())
				tenantJobs = append(tenantJobs, job)
			}
		}
	}

	window := time.Duration(sc.DurationMillis) * time.Millisecond
	var offered, admitted int
	if sc.Traffic != nil {
		profile, err := sc.Traffic.Profile(tenantNames)
		if err != nil {
			return ScenarioResult{}, err
		}
		offered, admitted, err = DriveTraffic(sim, tenantJobs, profile, window)
		if err != nil {
			return ScenarioResult{}, err
		}
	} else {
		sim.RunFor(window)
	}

	result := ScenarioResult{
		Machine:         spec.Name(),
		Scheduler:       sched.Name(),
		Window:          window.String(),
		TrafficOffered:  offered,
		TrafficAdmitted: admitted,
	}
	for i, nj := range jobs {
		info := jobInfo(i+1, nj.model, nj.job)
		if sf != nil {
			info.Device = sf.JobDeviceName(nj.job)
		}
		result.Jobs = append(result.Jobs, info)
	}
	if sf != nil {
		result.Preemptions = sf.Preemptions()
		result.Migrations = sf.Migrations()
	}
	return result, nil
}
