// Package control exposes a SwitchFlow simulation over HTTP/JSON — the
// model-submission service the paper sketches as future work ("this
// implementation can be improved to employ the gRPC interface for model
// submission, in a way similar to TF serving", §4). Clients submit jobs,
// advance virtual time, and read per-job and per-device statistics.
//
// Endpoints:
//
//	GET  /v1/status          simulation time, GPUs, scheduler counters
//	GET  /v1/models          the model zoo
//	GET  /v1/jobs            all jobs with stats
//	POST /v1/jobs            submit a job (JobRequest) -> JobInfo
//	GET  /v1/jobs/{id}       one job
//	DELETE /v1/jobs/{id}     stop a job
//	POST /v1/jobs/{id}/resize  grow/shrink an elastic job (ResizeRequest)
//	POST /v1/jobs/{id}/rebind  move one virtual node (RebindRequest)
//	POST /v1/groups          submit a shared-input group ([]JobRequest)
//	POST /v1/gpus/{gpu}/drain    vacate a GPU (elastic jobs rebind, others migrate)
//	POST /v1/gpus/{gpu}/undrain  make a drained GPU placeable again
//	POST /v1/advance         advance virtual time (AdvanceRequest)
//	GET  /v1/trace           Chrome trace-event JSON of the recorded window
//	GET  /v1/metrics         observability-spine event counts + aggregates
package control

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"switchflow"
	"switchflow/internal/obs"
	"switchflow/internal/scenario"
)

// StatusInfo is the simulation-wide status payload.
type StatusInfo struct {
	Machine      string    `json:"machine"`
	NowMillis    float64   `json:"nowMillis"`
	GPUs         []GPUInfo `json:"gpus"`
	Jobs         int       `json:"jobs"`
	Preemptions  int       `json:"preemptions"`
	Migrations   int       `json:"migrations"`
	GrantP95Usec float64   `json:"grantP95Micros"`
	// Aggregate serving counters across all jobs.
	OfferedRequests  int     `json:"offeredRequests"`
	ShedRequests     int     `json:"shedRequests"`
	SLOAttainmentPct float64 `json:"sloAttainmentPct"`
}

// GPUInfo is per-device status.
type GPUInfo struct {
	Index      int     `json:"index"`
	BusyMillis float64 `json:"busyMillis"`
	MemUsed    int64   `json:"memUsedBytes"`
}

// ResizeRequest changes an elastic job's virtual-node count; the split
// is re-priced across the job's current devices (growing adds GPUs).
type ResizeRequest struct {
	VNodes int `json:"vnodes"`
}

// RebindRequest moves one virtual node to a different GPU at the next
// epoch-safe point.
type RebindRequest struct {
	VNode int `json:"vnode"`
	GPU   int `json:"gpu"`
}

// AdvanceRequest advances virtual time.
type AdvanceRequest struct {
	ForMillis int `json:"forMillis"`
}

// AdvanceResponse reports the new clock.
type AdvanceResponse struct {
	NowMillis float64 `json:"nowMillis"`
}

// Server serves one simulation. The simulation is single-threaded; every
// handler holds the mutex while touching it.
type Server struct {
	mu      sync.Mutex
	machine string
	sim     *switchflow.Simulation
	sched   *switchflow.SwitchFlowScheduler
	jobs    map[int]*jobEntry
	// order holds job ids in creation (= ascending) order, so listing is
	// O(jobs) instead of scanning the whole 1..nextID id space.
	order  []int
	nextID int
	// recorder captures the observability spine for /v1/trace and
	// /v1/metrics. It is bounded (a ring of the most recent events) so a
	// long-running server cannot grow without bound.
	recorder *obs.Recorder
}

// recorderCap bounds the trace window the server retains: enough for tens
// of seconds of simulated kernel activity, small enough to stay O(100MB)
// in the worst case.
const recorderCap = 1 << 18

type jobEntry struct {
	id    int
	model string
	job   *switchflow.Job
}

// NewServer creates a control server over a fresh simulation of the named
// machine ("v100", "2gpu", "tx2").
func NewServer(machine string) (*Server, error) {
	spec, err := scenario.MachineSpec(machine)
	if err != nil {
		return nil, err
	}
	sim := switchflow.NewSimulation(spec)
	rec := obs.NewRecorder(recorderCap)
	// Everything except OpSched: per-operator dispatch is orders of
	// magnitude more voluminous than the rest of the spine combined and
	// would evict the decision events /v1/trace exists to show.
	sim.EventBus().Subscribe(rec,
		obs.KindKernelSpan, obs.KindLaunch, obs.KindPreempt, obs.KindResume,
		obs.KindMigrate, obs.KindBatchFuse, obs.KindAdmit, obs.KindShed,
		obs.KindServe, obs.KindFaultInject, obs.KindJobLost,
		obs.KindCheckpoint, obs.KindRestore, obs.KindPlace,
		obs.KindBind, obs.KindRebind, obs.KindResize)
	sched, err := sim.NewSwitchFlowScheduler()
	if err != nil {
		return nil, err
	}
	return &Server{
		machine:  spec.Name(),
		sim:      sim,
		sched:    sched,
		jobs:     make(map[int]*jobEntry),
		recorder: rec,
	}, nil
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleStopJob)
	mux.HandleFunc("POST /v1/jobs/{id}/resize", s.handleResizeJob)
	mux.HandleFunc("POST /v1/jobs/{id}/rebind", s.handleRebindJob)
	mux.HandleFunc("POST /v1/groups", s.handleSubmitGroup)
	mux.HandleFunc("POST /v1/gpus/{gpu}/drain", s.handleGPUOp("drain"))
	mux.HandleFunc("POST /v1/gpus/{gpu}/undrain", s.handleGPUOp("undrain"))
	mux.HandleFunc("POST /v1/advance", s.handleAdvance)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

// The handlers below all follow the same shape: a *Locked method takes
// s.mu, builds the response payload, and returns it; the handler writes
// the payload only after the lock is released. Writing to the
// ResponseWriter under s.mu would let one slow client stall the whole
// control plane (the write can block on the peer's TCP window), which
// the locksafe analyzer flags.

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statusLocked())
}

func (s *Server) statusLocked() StatusInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	status := StatusInfo{
		Machine:      s.machine,
		NowMillis:    s.sim.Now().Seconds() * 1e3,
		Jobs:         len(s.jobs),
		Preemptions:  s.sched.Preemptions(),
		Migrations:   s.sched.Migrations(),
		GrantP95Usec: float64(s.sched.PreemptionP95().Microseconds()),
	}
	var served, sloMet int
	for _, id := range s.order {
		st := s.jobs[id].job.ServingStats()
		status.OfferedRequests += st.Offered
		status.ShedRequests += st.Shed
		served += st.Served
		sloMet += st.SLOMet
	}
	if served > 0 {
		status.SLOAttainmentPct = 100 * float64(sloMet) / float64(served)
	}
	for i := 0; i < s.sim.GPUCount(); i++ {
		status.GPUs = append(status.GPUs, GPUInfo{
			Index:      i,
			BusyMillis: s.sim.GPUBusy(i).Seconds() * 1e3,
			MemUsed:    s.sim.GPUMemoryUsed(i),
		})
	}
	return status
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, switchflow.Models())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.listJobsLocked())
}

func (s *Server) listJobsLocked() []scenario.JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]scenario.JobInfo, 0, len(s.jobs))
	for _, id := range s.order {
		infos = append(infos, s.info(s.jobs[id]))
	}
	return infos
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req scenario.JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.submitJobLocked(req.Model, spec)
	reply(w, http.StatusCreated, info, http.StatusConflict, err)
}

func (s *Server) submitJobLocked(model string, spec switchflow.JobSpec) (scenario.JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, err := s.sched.AddJob(spec)
	if err != nil {
		return scenario.JobInfo{}, err
	}
	return s.info(s.track(model, job)), nil
}

func (s *Server) handleSubmitGroup(w http.ResponseWriter, r *http.Request) {
	var reqs []scenario.JobRequest
	if !decodeBody(w, r, &reqs) {
		return
	}
	specs := make([]switchflow.JobSpec, len(reqs))
	for i, req := range reqs {
		var err error
		if specs[i], err = req.Spec(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	infos, err := s.submitGroupLocked(reqs, specs)
	reply(w, http.StatusCreated, infos, http.StatusConflict, err)
}

func (s *Server) submitGroupLocked(reqs []scenario.JobRequest, specs []switchflow.JobSpec) ([]scenario.JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	group, err := s.sched.AddSharedGroup(specs)
	if err != nil {
		return nil, err
	}
	infos := make([]scenario.JobInfo, 0, len(reqs))
	for i, job := range group.Jobs() {
		infos = append(infos, s.info(s.track(reqs[i].Model, job)))
	}
	return infos, nil
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	info, err := s.jobInfoLocked(r.PathValue("id"), false)
	reply(w, http.StatusOK, info, http.StatusNotFound, err)
}

func (s *Server) handleStopJob(w http.ResponseWriter, r *http.Request) {
	info, err := s.jobInfoLocked(r.PathValue("id"), true)
	reply(w, http.StatusOK, info, http.StatusNotFound, err)
}

// jobInfoLocked resolves a job by its path id and returns its status,
// stopping it first when stop is set.
func (s *Server) jobInfoLocked(idText string, stop bool) (scenario.JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, err := s.lookup(idText)
	if err != nil {
		return scenario.JobInfo{}, err
	}
	if stop {
		s.sched.StopJob(entry.job)
	}
	return s.info(entry), nil
}

func (s *Server) handleResizeJob(w http.ResponseWriter, r *http.Request) {
	var req ResizeRequest
	if decodeBody(w, r, &req) {
		info, err := s.jobOpLocked(r.PathValue("id"), scenario.OpRequest{Op: "resize", VNodes: req.VNodes})
		reply(w, http.StatusOK, info, http.StatusConflict, err)
	}
}

func (s *Server) handleRebindJob(w http.ResponseWriter, r *http.Request) {
	var req RebindRequest
	if decodeBody(w, r, &req) {
		info, err := s.jobOpLocked(r.PathValue("id"), scenario.OpRequest{Op: "rebind", VNode: req.VNode, GPU: req.GPU})
		reply(w, http.StatusOK, info, http.StatusConflict, err)
	}
}

// jobOpLocked applies op to the job with the given path id.
func (s *Server) jobOpLocked(idText string, op scenario.OpRequest) (scenario.JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, err := s.lookup(idText)
	if err != nil {
		return scenario.JobInfo{}, err
	}
	if err := op.Apply(s.sched, entry.job); err != nil {
		return scenario.JobInfo{}, err
	}
	return s.info(entry), nil
}

// handleGPUOp serves the drain and undrain routes.
func (s *Server) handleGPUOp(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		status, err := s.gpuOpLocked(r.PathValue("gpu"), op)
		reply(w, http.StatusOK, status, http.StatusConflict, err)
	}
}

func (s *Server) gpuOpLocked(gpuText, op string) (StatusInfo, error) {
	gpu, err := strconv.Atoi(gpuText)
	if err != nil {
		return StatusInfo{}, fmt.Errorf("bad gpu index %q", gpuText)
	}
	s.mu.Lock()
	err = scenario.OpRequest{Op: op, GPU: gpu}.Apply(s.sched, nil)
	s.mu.Unlock()
	if err != nil {
		return StatusInfo{}, err
	}
	return s.statusLocked(), nil
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req AdvanceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ForMillis <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("forMillis must be positive, got %d", req.ForMillis))
		return
	}
	d, err := scenario.FromMillis("forMillis", float64(req.ForMillis))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.advanceLocked(d)
	reply(w, http.StatusOK, resp, http.StatusBadRequest, err)
}

func (s *Server) advanceLocked(d time.Duration) (AdvanceResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := s.sim.Now(); d > math.MaxInt64-now {
		return AdvanceResponse{}, fmt.Errorf("advancing %v from %v passes the last representable instant", d, now)
	}
	s.sim.RunFor(d)
	return AdvanceResponse{NowMillis: s.sim.Now().Seconds() * 1e3}, nil
}

// MetricsInfo is the /v1/metrics payload: spine-wide event accounting
// plus the scheduler's decision and fault aggregates.
type MetricsInfo struct {
	// Events is how many spine events the trace recorder currently holds;
	// DroppedEvents counts older events evicted by the bounded window.
	Events        int    `json:"events"`
	DroppedEvents uint64 `json:"droppedEvents"`
	// ByKind breaks the retained events down by event kind.
	ByKind map[string]int `json:"byKind"`
	// Scheduler decision counters and fault aggregates.
	Preemptions int                   `json:"preemptions"`
	Migrations  int                   `json:"migrations"`
	Faults      switchflow.FaultStats `json:"faults"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	events := s.traceEventsLocked()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteChrome(w, events)
}

func (s *Server) traceEventsLocked() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorder.Events()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsLocked())
}

func (s *Server) metricsLocked() MetricsInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	events := s.recorder.Events()
	byKind := make(map[string]int)
	for _, e := range events {
		byKind[e.Kind.String()]++
	}
	return MetricsInfo{
		Events:        len(events),
		DroppedEvents: s.recorder.Dropped(),
		ByKind:        byKind,
		Preemptions:   s.sched.Preemptions(),
		Migrations:    s.sched.Migrations(),
		Faults:        s.sched.FaultStats(),
	}
}

func (s *Server) track(model string, job *switchflow.Job) *jobEntry {
	s.nextID++
	entry := &jobEntry{id: s.nextID, model: model, job: job}
	s.jobs[entry.id] = entry
	s.order = append(s.order, entry.id)
	return entry
}

func (s *Server) lookup(idText string) (*jobEntry, error) {
	id, err := strconv.Atoi(idText)
	if err != nil {
		return nil, fmt.Errorf("bad job id %q", idText)
	}
	entry, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("job %d not found", id)
	}
	return entry, nil
}

func (s *Server) info(entry *jobEntry) scenario.JobInfo {
	return scenario.NewJobInfo(entry.id, entry.model, entry.job, s.sched, 0)
}

// decodeBody decodes the request body strictly into v. On failure it
// answers 400, naming any unknown field, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := scenario.DecodeStrict(r.Body, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// reply writes v with status code, or a non-nil err with failCode.
func reply(w http.ResponseWriter, code int, v any, failCode int, err error) {
	if err != nil {
		writeError(w, failCode, err)
		return
	}
	writeJSON(w, code, v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
