package core

import (
	"fmt"
	"slices"

	"switchflow/internal/device"
	"switchflow/internal/executor"
	"switchflow/internal/workload"
)

// Group is a set of correlated jobs sharing one input pipeline (§3.4,
// Listing 1). Its members are ordinary jobs that step through step.go;
// the group holds only the master's CPU preprocessing stage, run once per
// batch and prefetched up to depth batches ahead, and the turn order in
// which every member consumes the cached batch before the group moves to
// the next. Pumping any member drives the group (Manager.pump).
type Group struct {
	m       *Manager
	members []*jobState

	inputReady   int
	inputRunning bool
	depth        int
	turn         int
	// inputDoneFn is the shared input stage's onDone, bound once.
	inputDoneFn func()
}

// AddSharedGroup admits a set of jobs that share the data preprocessing
// stage. All members must target the same device, batch size and
// fallbacks: they run in lockstep on identical batches and move together.
// Members are admitted like AddJob's, but the shared input stage feeds
// them instead of arrivals of their own.
func (m *Manager) AddSharedGroup(cfgs []workload.Config) (*Group, []*workload.Job, error) {
	if len(cfgs) < 2 {
		return nil, nil, fmt.Errorf("core: a shared group needs at least 2 jobs, got %d", len(cfgs))
	}
	for _, cfg := range cfgs {
		// An elastic member's binding could re-split mid-group.
		if len(cfg.VNodes) > 0 || cfg.Device != cfgs[0].Device || cfg.Batch != cfgs[0].Batch ||
			!slices.Equal(cfg.Fallbacks, cfgs[0].Fallbacks) {
			return nil, nil, fmt.Errorf("core: shared group member %q must share device, batch size and fallbacks, without virtual nodes", cfg.Name)
		}
	}
	g := &Group{m: m, depth: 2}
	var jobs []*workload.Job
	for _, cfg := range cfgs {
		js, err := m.admit(cfg)
		if err != nil {
			// A failed member unwinds the weights of those admitted before it.
			for _, mb := range g.members {
				mb.job.FreeWeights(mb.current())
			}
			return nil, nil, err
		}
		js.group = g
		g.members = append(g.members, js)
		jobs = append(jobs, js.job)
	}
	for _, js := range g.members {
		m.jobs = append(m.jobs, js)
		m.armCheckpoints(js)
	}
	pump := func() { m.pump(g.members[0]) }
	g.inputDoneFn = func() {
		g.inputRunning = false
		g.inputReady++
		pump()
	}
	m.eng.After(0, pump)
	return g, jobs, nil
}

// pumpInput runs the master's input stage — the first member still in
// the turn order — one batch at a time, up to depth batches ahead. An
// input stall gates it as it gates a plain job's.
func (g *Group) pumpInput() {
	if g.inputRunning || g.inputReady >= g.depth || g.m.eng.Now() < g.m.stallUntil {
		return
	}
	i := slices.IndexFunc(g.members, (*jobState).live)
	if i < 0 {
		return
	}
	master := g.members[i]
	dev := master.current()
	v, err := master.job.Version(dev)
	if err != nil {
		g.m.loseJob(master, dev, err, "no graph version")
		return
	}
	if v.Input == nil {
		g.inputReady++
		return
	}
	g.inputRunning = true
	if _, err := master.job.StartExec(v.Input, executor.Config{Pool: g.m.poolFor(master)}, g.inputDoneFn); err != nil {
		g.m.loseJob(master, dev, err, "input start failed")
		g.inputRunning = false
	}
}

// turnMember returns the member whose turn it is, handed the cached batch
// as its prefetched input, or nil while the group holds no batch. A
// stopped or crashed member leaves the turn order: it gives up its turn,
// and its open step, if any, is torn down.
func (g *Group) turnMember() *jobState {
	for g.inputReady > 0 {
		js := g.members[g.turn]
		if !js.live() {
			g.m.discardStep(js, device.ID{})
			g.advance()
			continue
		}
		if !js.stepOpen && !js.job.InputAvailable() {
			js.job.BeginInput()
			js.job.FinishInput()
		}
		return js
	}
	return nil
}

// advance passes the turn on (a member's commitStep calls it). Once every
// member has had the batch, it is consumed and the input stage may
// prefetch the next.
func (g *Group) advance() {
	g.turn++
	if g.turn == len(g.members) {
		g.turn = 0
		g.inputReady--
	}
}
