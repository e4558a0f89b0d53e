// Package fault provides deterministic, seed-driven fault injection for
// the simulated substrate. A Plan is a list of virtual-clock events —
// device loss, transient kernel/ECC errors, input-pipeline stalls — that
// an Injector schedules on a sim.Engine. Plans are built event by event,
// or drawn by Random from a seed: a fixed mix of transient errors and
// input stalls, with no device loss. The injector applies the
// device-level effect (failing the GPU, degrading its clock) and then
// notifies the attached schedulers, which decide what happens to the
// jobs: SwitchFlow migrates victims through their configured fallbacks
// and restarts them from host checkpoints (self-healing, §3.4/§5.2),
// while the threaded-TF and MPS baselines lose the jobs outright.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/sim"
)

// Kind discriminates fault types.
type Kind int

// Fault kinds.
const (
	// KindDeviceLost takes a GPU off the bus: in-flight kernels are
	// dropped and the device's memory contents are gone. Jobs survive
	// only by migrating to a fallback device and restoring state from a
	// host checkpoint.
	KindDeviceLost Kind = iota + 1
	// KindTransient is a one-shot kernel/ECC error on a device: the
	// iteration in flight is corrupted and the victim job must restart
	// from its last checkpoint; the hardware itself stays usable.
	KindTransient
	// KindInputStall pauses every input pipeline for Duration (a storage
	// or preprocessing hiccup); compute keeps draining prefetched
	// batches.
	KindInputStall
	// KindDegraded slows a device's kernel execution by Factor for
	// Duration (thermal throttling, ECC retry storms), then heals it.
	KindDegraded
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDeviceLost:
		return "device-lost"
	case KindTransient:
		return "transient"
	case KindInputStall:
		return "input-stall"
	case KindDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrDeviceLost is the crash cause of jobs killed by a device loss.
// Schedulers wrap it, so use errors.Is to test for it.
var ErrDeviceLost = errors.New("device lost")

// ErrTransient is the crash cause of baseline jobs killed by a transient
// kernel/ECC fault (they have no restart path).
var ErrTransient = errors.New("transient kernel fault")

// Event is one scheduled fault.
type Event struct {
	// At is the virtual time the fault strikes.
	At time.Duration
	// Kind selects the fault type.
	Kind Kind
	// Device is the target (DeviceLost, Transient, Degraded).
	Device device.ID
	// Duration bounds InputStall and Degraded windows.
	Duration time.Duration
	// Factor is the Degraded slowdown (>= 1).
	Factor float64
}

// Plan is an ordered fault schedule. The zero value is an empty plan;
// builder methods append and return the plan for chaining.
type Plan struct {
	Events []Event
}

// LoseGPU schedules a device-lost fault on GPU gpu at t.
func (p *Plan) LoseGPU(at time.Duration, gpu int) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: KindDeviceLost, Device: device.GPUID(gpu)})
	return p
}

// Transient schedules a one-shot kernel/ECC error on GPU gpu at t.
func (p *Plan) Transient(at time.Duration, gpu int) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: KindTransient, Device: device.GPUID(gpu)})
	return p
}

// StallInputs schedules an input-pipeline stall of length d at t.
func (p *Plan) StallInputs(at, d time.Duration) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: KindInputStall, Duration: d})
	return p
}

// Degrade schedules a degraded window on GPU gpu: kernels run factor
// times slower for d, then the device heals.
func (p *Plan) Degrade(at time.Duration, gpu int, factor float64, d time.Duration) *Plan {
	p.Events = append(p.Events, Event{
		At: at, Kind: KindDegraded, Device: device.GPUID(gpu), Duration: d, Factor: factor,
	})
	return p
}

// Sorted returns the events ordered by time (stable, so same-instant
// events keep insertion order — the determinism contract).
func (p *Plan) Sorted() []Event {
	out := make([]Event, len(p.Events))
	copy(out, p.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Random's fault mix, busy but survivable: exponential gaps between
// transient errors and between input stalls.
const (
	meanBetweenTransients = 12 * time.Second
	meanBetweenStalls     = 15 * time.Second
	stallDuration         = 500 * time.Millisecond
)

// Random draws a fault plan over [0, horizon) from the seed: transient
// errors on GPUs 0..gpus-1, then input stalls. Identical (seed, horizon,
// gpus) triples produce identical plans — the chaos experiment's
// determinism rests on this.
func Random(seed int64, horizon time.Duration, gpus int) Plan {
	rng := rand.New(rand.NewSource(seed))
	var p Plan
	if gpus > 0 {
		for at := expDraw(rng, meanBetweenTransients); at < horizon; at += expDraw(rng, meanBetweenTransients) {
			p.Transient(at, rng.Intn(gpus))
		}
	}
	for at := expDraw(rng, meanBetweenStalls); at < horizon; at += expDraw(rng, meanBetweenStalls) {
		p.StallInputs(at, stallDuration)
	}
	return p
}

func expDraw(rng *rand.Rand, mean time.Duration) time.Duration {
	return sim.Nanos(rng.ExpFloat64() * float64(mean))
}
