// Package shard advances a fleet of independent sim.Engines in parallel
// within bounded time epochs, the partitioned-execution idea the TF papers
// apply to dataflow workers brought to the simulator itself: each machine
// owns its engine and runs its own event loop, and cross-machine
// interaction is confined to epoch barriers where every engine sits at the
// same virtual instant.
//
// Determinism contract: between barriers the engines share no mutable
// state, so each advances exactly as it would serially regardless of
// worker count or completion order (the same argument as harness.Map's
// sweep-level contract, one level down). Barrier hooks run serially on the
// calling goroutine in registration order, with every engine stopped at
// the barrier time, so cross-shard decisions (placement, migration,
// routing) see one consistent global state and may schedule work onto any
// engine at or after the barrier. Per-machine observation streams are
// merged with obs.Merge by (virtual time, machine index, emit seq), which
// reproduces the order a serial interleaving would have produced —
// byte-identical traces, serial or parallel.
//
// The epoch length is a fidelity knob, not a correctness knob: machines
// cannot observe each other's intra-epoch progress, so interactions land
// with up to one epoch of latency. Pick an epoch at or below the latency
// the modeled control plane would have (the cluster layer defaults to its
// placement-loop period).
package shard

import (
	"fmt"
	"time"

	"switchflow/internal/harness"
	"switchflow/internal/sim"
)

// Group is a set of per-machine engines advancing in lockstep epochs.
type Group struct {
	engines  []*sim.Engine
	epoch    time.Duration
	now      time.Duration
	barriers []func(now time.Duration)
}

// New creates a group over the given engines with the given epoch length.
// All engines must agree on the current virtual time (freshly built
// engines all sit at zero), and the epoch must be positive.
func New(epoch time.Duration, engines ...*sim.Engine) *Group {
	if epoch <= 0 {
		panic(fmt.Sprintf("shard: epoch %v must be positive", epoch))
	}
	if len(engines) == 0 {
		panic("shard: group needs at least one engine")
	}
	now := engines[0].Now()
	for i, e := range engines {
		if e.Now() != now {
			panic(fmt.Sprintf("shard: engine %d at %v, engine 0 at %v; engines must start aligned", i, e.Now(), now))
		}
	}
	return &Group{engines: engines, epoch: epoch, now: now}
}

// Now returns the group's barrier-aligned virtual time: every engine has
// fired all events up to it.
func (g *Group) Now() time.Duration { return g.now }

// Epoch returns the configured epoch length.
func (g *Group) Epoch() time.Duration { return g.epoch }

// AtBarrier registers fn to run at every epoch barrier, including the
// final (possibly short) epoch ending exactly at a RunUntil horizon. Hooks
// run serially in registration order with all engines stopped at now; they
// may schedule onto any engine at or after now.
func (g *Group) AtBarrier(fn func(now time.Duration)) {
	g.barriers = append(g.barriers, fn)
}

// RunUntil advances every engine to t in epoch-sized strides. Within an
// epoch the engines advance in parallel via harness.Map; at each stride
// boundary (and at t itself) the barrier hooks run. A horizon at or before
// the current time is a no-op: barriers fire only when time advances, so
// repeated RunUntil calls to the same horizon do not re-run hooks.
func (g *Group) RunUntil(t time.Duration) {
	for g.now < t {
		next := g.now + g.epoch
		if next > t {
			next = t
		}
		if len(g.engines) == 1 {
			g.engines[0].RunUntil(next)
		} else {
			harness.Map(g.engines, func(e *sim.Engine) struct{} {
				e.RunUntil(next)
				return struct{}{}
			})
		}
		g.now = next
		for _, fn := range g.barriers {
			fn(g.now)
		}
	}
}

// RunFor is RunUntil relative to the current barrier time.
func (g *Group) RunFor(d time.Duration) { g.RunUntil(g.now + d) }
