package core

import (
	"fmt"

	"switchflow/internal/executor"
	"switchflow/internal/workload"
)

// Group is a set of correlated jobs sharing one input pipeline (§3.4,
// Listing 1): the master's CPU preprocessing stage runs once per batch,
// the processed tensor is cached immutably on the GPU, and every member's
// GPU executor consumes it in lockstep round-robin before the group moves
// to the next batch.
type Group struct {
	m       *Manager
	members []*jobState

	inputReady   int
	inputRunning bool
	depth        int
	turn         int
	busy         bool
	stopped      bool
}

// AddSharedGroup admits a set of jobs that share the data preprocessing
// stage. All members must target the same device and batch size (they are
// trained/served in lockstep on identical input batches).
func (m *Manager) AddSharedGroup(cfgs []workload.Config) (*Group, []*workload.Job, error) {
	if len(cfgs) < 2 {
		return nil, nil, fmt.Errorf("core: a shared group needs at least 2 jobs, got %d", len(cfgs))
	}
	for _, cfg := range cfgs {
		// Groups run in lockstep on one device; an elastic member's binding
		// could move mid-group, so the combination is rejected.
		if len(cfg.VNodes) > 0 {
			return nil, nil, fmt.Errorf("core: shared group member %q cannot use virtual nodes", cfg.Name)
		}
	}
	for _, cfg := range cfgs[1:] {
		if cfg.Device != cfgs[0].Device {
			return nil, nil, fmt.Errorf("core: shared group members must target one device")
		}
		if cfg.Batch != cfgs[0].Batch {
			return nil, nil, fmt.Errorf("core: shared group members must share the batch size")
		}
	}
	g := &Group{m: m, depth: 2}
	var jobs []*workload.Job
	for _, cfg := range cfgs {
		m.ctxSeq++
		job, err := workload.NewJob(m.eng, m.machine, m.ctxSeq, cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := job.AllocWeights(cfg.Device); err != nil {
			return nil, nil, fmt.Errorf("core: admit %s: %w", cfg.Name, err)
		}
		js := newJobState(m, job)
		js.group = g
		g.members = append(g.members, js)
		jobs = append(jobs, job)
	}
	m.groups = append(m.groups, g)
	m.eng.After(0, g.pump)
	return g, jobs, nil
}

// Stop halts the group after in-flight stages complete.
func (g *Group) Stop() { g.stopped = true }

// pump drives the group's lockstep schedule: a shared CPU input stage
// (prefetching up to depth batches ahead) and one member GPU executor at a
// time, round-robin.
func (g *Group) pump() {
	if g.stopped {
		return
	}
	g.pumpInput()
	g.pumpTurn()
}

func (g *Group) pumpInput() {
	if g.inputRunning || g.inputReady >= g.depth {
		return
	}
	master := g.members[0]
	v, err := master.job.Version(master.current())
	if err != nil {
		master.job.Crash(err)
		g.m.emitJobLost(master, master.current(), "no graph version")
		return
	}
	if v.Input == nil {
		g.inputReady++
		return
	}
	g.inputRunning = true
	_, err = master.job.StartExec(v.Input, executor.Config{Pool: g.m.global}, func() {
		g.inputRunning = false
		g.inputReady++
		g.pump()
	})
	if err != nil {
		master.job.Crash(err)
		g.m.emitJobLost(master, master.current(), "input start failed")
		g.inputRunning = false
	}
}

// pumpTurn runs the next member's GPU executor on the cached batch.
// A batch is consumed once every member has processed it.
func (g *Group) pumpTurn() {
	if g.busy || g.inputReady == 0 {
		return
	}
	js := g.members[g.turn]
	if js.job.Crashed() {
		g.advanceTurn()
		return
	}
	g.busy = true
	sh := js.shards[0]
	js.acquiredAt = g.m.eng.Now()
	g.m.acquire(sh.dev.Index, js, func() {
		sh.holding = true
		g.runMember(js, sh)
	})
}

// requeue puts the member whose turn it is back in line for the GPU after
// a preemption or restart took the device from it mid-batch; the member
// resumes in its turn and never runs its own input stage.
func (g *Group) requeue() {
	g.busy = false
	g.pump()
}

func (g *Group) runMember(js *jobState, sh *shardState) {
	if sh.run != nil {
		g.m.resumeShard(js, sh)
		return
	}
	v, err := js.job.Version(sh.dev)
	if err != nil {
		g.memberFailed(js, sh, err)
		return
	}
	n := js.job.VNodeScratchBytes(sh.idx)
	if err := js.job.AllocScratchBytes(sh.dev, n); err != nil {
		g.memberFailed(js, sh, err)
		return
	}
	sh.scratch = n
	cfg := executor.Config{Pool: g.m.global, Stream: js.job.Stream(sh.dev)}
	run, err := js.job.StartExec(v.Compute, cfg, func() {
		sh.run = nil
		js.job.FreeScratchBytes(sh.dev, sh.scratch)
		sh.scratch = 0
		js.job.Iterations++
		g.m.releaseShard(sh)
		g.busy = false
		g.advanceTurn()
	})
	if err != nil {
		js.job.FreeScratchBytes(sh.dev, sh.scratch)
		sh.scratch = 0
		g.memberFailed(js, sh, err)
		return
	}
	sh.run = run
}

func (g *Group) memberFailed(js *jobState, sh *shardState, err error) {
	js.job.Crash(err)
	g.m.emitJobLost(js, sh.dev, "coupled member failed")
	g.m.releaseShard(sh)
	g.busy = false
	g.advanceTurn()
}

// advanceTurn moves to the next member; when every member has seen the
// batch, it is released and the group fetches the next one.
func (g *Group) advanceTurn() {
	g.turn++
	if g.turn == len(g.members) {
		g.turn = 0
		g.inputReady--
	}
	g.pump()
}
