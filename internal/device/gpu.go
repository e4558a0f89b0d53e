package device

import (
	"math"
	"time"

	"switchflow/internal/obs"
	"switchflow/internal/sim"
)

// Kernel is one unit of GPU work submitted for execution.
type Kernel struct {
	// Name labels the kernel in traces, e.g. "conv2d_3/fwd".
	Name string
	// Work is the solo execution time of the kernel on this GPU.
	Work time.Duration
	// Occupancy in [0,1] is the fraction of GPU resources (registers,
	// SMs) the kernel's launch configuration consumes. Heavy cuDNN-style
	// kernels are near 1 and cannot co-run (§2.2: 10 of 13 conv kernels
	// were register-bottlenecked), so a second heavy kernel waits — the
	// serialization visible in Figure 2.
	Occupancy float64
	// Ctx identifies the owning context (job) for traces and accounting.
	Ctx int
	// OnDone fires at kernel completion, in virtual time.
	OnDone func()
	// Done, when set, fires with Tag at kernel completion instead of
	// OnDone. It is the allocation-free form for callers that launch many
	// kernels: one callback bound once, with the per-kernel state in Tag.
	Done func(tag int32)
	Tag  int32
}

// fire runs a kernel's completion callback, the tagged form first.
func fire(onDone func(), done func(tag int32), tag int32) {
	if done != nil {
		done(tag)
	} else if onDone != nil {
		onDone()
	}
}

// Span records one executed kernel interval, for Figure 2 style timelines.
type Span struct {
	Name  string
	Ctx   int
	Start time.Duration
	End   time.Duration
}

// kernelExec is a kernel in flight or queued at the device. Retired and
// dropped ones return to the GPU's free list.
type kernelExec struct {
	Kernel
	// stream is the issuing stream, nil for a direct Submit: complete
	// hands the kernel back to it.
	stream *Stream

	remaining float64 // seconds of solo work left
	started   time.Duration
	occ       float64
}

// contentionBeta is the per-extra-kernel slowdown when kernels do co-run
// (shared memory bandwidth and cache pressure).
const contentionBeta = 0.06

// GPU is a simulated graphics processor. Kernels are admitted in FIFO
// order while their combined occupancy fits the device (capacity 1.0);
// admitted kernels run concurrently at a mildly contended rate, everything
// else waits. Exclusive use is a scheduler-level policy, not a device
// property, exactly as on real hardware.
type GPU struct {
	// Class describes the hardware.
	Class GPUClass
	// Mem is the device memory pool.
	Mem *MemPool

	bus        *obs.Bus
	id         ID
	eng        *sim.Engine
	running    []*kernelExec
	queue      []*kernelExec
	free       []*kernelExec // recycled kernelExec structs
	done       []*kernelExec // reused by complete to stage retirees
	usedOcc    float64
	lastUpdate time.Duration
	completion sim.Event
	completeFn func() // g.complete, bound once so reschedule allocates nothing
	busy       time.Duration
	busySince  time.Duration
	launched   uint64
	dropped    uint64
	failed     bool
	draining   bool
	slowdown   float64 // execution slowdown while degraded; 0 or 1 = healthy
}

// NewGPU creates a GPU of the given class bound to the engine.
func NewGPU(eng *sim.Engine, id ID, class GPUClass) *GPU {
	g := &GPU{
		Class: class,
		Mem:   NewMemPool(id.String()+" ("+class.Name+")", class.MemoryBytes),
		id:    id,
		eng:   eng,
	}
	g.completeFn = g.complete
	return g
}

// SetBus points the GPU at a shared bus (called by NewMachine).
func (g *GPU) SetBus(b *obs.Bus) { g.bus = b }

// Submit queues a copy of k for execution, so callers may reuse theirs. It
// starts immediately if its occupancy fits alongside the kernels already
// running, otherwise it waits FIFO. Kernels submitted to a failed device
// are dropped and never complete, like launches against a lost CUDA
// context; schedulers are expected to abort the owning executor runs when
// they handle the device-lost fault.
func (g *GPU) Submit(k Kernel) { g.submit(&k, nil) }

// submit queues a copy of *k issued by s (nil for a direct Submit).
func (g *GPU) submit(k *Kernel, s *Stream) {
	if g.failed {
		g.dropped++
		return
	}
	g.advance()
	occ := k.Occupancy
	if occ < 0.05 {
		occ = 0.05
	}
	if occ > 1 {
		occ = 1
	}
	var exec *kernelExec
	if n := len(g.free); n > 0 {
		exec = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		exec = new(kernelExec)
	}
	exec.Kernel = *k
	exec.stream = s
	exec.remaining = k.Work.Seconds()
	exec.occ = occ
	g.queue = append(g.queue, exec)
	g.launched++
	g.admit()
	g.reschedule()
}

// Launched returns the total number of kernels ever submitted.
func (g *GPU) Launched() uint64 { return g.launched }

// Draining reports whether the device is being drained for maintenance:
// it still executes work, but placement layers must stop assigning new
// jobs or virtual nodes to it.
func (g *GPU) Draining() bool { return g.draining }

// SetDraining marks (or clears) the device's administrative drain state.
// Unlike Fail it has no hardware effect — in-flight kernels finish and
// resident memory stays valid, so schedulers can migrate state off the
// device over the cheap peer path.
func (g *GPU) SetDraining(v bool) { g.draining = v }

// BusyTime returns the accumulated time during which at least one kernel
// was executing, for utilization accounting (Figure 3).
func (g *GPU) BusyTime() time.Duration {
	if len(g.running) > 0 {
		return g.busy + (g.eng.Now() - g.busySince)
	}
	return g.busy
}

// Failed reports whether the device has been lost (fault injection).
func (g *GPU) Failed() bool { return g.failed }

// Fail takes the device off the bus: every in-flight and queued kernel is
// discarded without completing (neither OnDone nor Done ever fires) and
// the memory pool's contents are lost. It returns the number of kernels
// dropped. Further Submits are dropped too, until Heal. A stream whose
// in-flight kernel is dropped stays in flight: its queue never issues
// again and its Drain callbacks never fire.
func (g *GPU) Fail() int {
	if g.failed {
		return 0
	}
	g.advance()
	if len(g.running) > 0 {
		g.busy += g.eng.Now() - g.busySince
	}
	lost := len(g.running) + len(g.queue)
	g.dropped += uint64(lost)
	for _, e := range g.running {
		g.recycle(e)
	}
	for _, e := range g.queue {
		g.recycle(e)
	}
	g.running = g.running[:0]
	g.queue = g.queue[:0]
	g.usedOcc = 0
	g.completion.Cancel()
	g.completion = sim.Event{}
	g.failed = true
	g.Mem.Invalidate()
	return lost
}

// Degrade slows kernel execution by factor (>= 1), modelling a device in
// a throttled or error-retry state (e.g. after correctable ECC errors).
// Degrading a failed device has no effect: Heal restores full speed. A
// factor so large that a running kernel's finish lies past the end of
// virtual time (+Inf included) stalls the device until Heal or a milder
// Degrade.
func (g *GPU) Degrade(factor float64) {
	if factor < 1 {
		factor = 1
	}
	g.advance()
	g.slowdown = factor
	g.reschedule()
}

// Heal returns the device to healthy full-speed operation. Memory lost at
// Fail time stays lost; jobs must restore state from host checkpoints.
func (g *GPU) Heal() {
	g.advance()
	g.failed = false
	g.slowdown = 0
	g.reschedule()
}

// admit moves queued kernels into execution while they fit, in FIFO order
// (a big kernel at the head blocks the lane, like a hardware work queue).
// Admitted kernels are copied down out of the queue rather than resliced
// off its front, so the queue keeps its capacity and appends stay free.
func (g *GPU) admit() {
	n := 0
	for _, head := range g.queue {
		if g.usedOcc+head.occ > 1.0001 {
			break
		}
		n++
		if len(g.running) == 0 {
			g.busySince = g.eng.Now()
		}
		head.started = g.eng.Now()
		g.usedOcc += head.occ
		g.running = append(g.running, head)
	}
	if n == len(g.queue) {
		g.queue = g.queue[:0]
	} else {
		g.queue = g.queue[:copy(g.queue, g.queue[n:])]
	}
}

// recycle returns e to the free list, dropping its callback references.
// The other fields are left stale: submit and admit set them before use.
func (g *GPU) recycle(e *kernelExec) {
	e.Kernel = Kernel{}
	e.stream = nil
	g.free = append(g.free, e)
}

// advance applies elapsed virtual time to running kernels at the current
// contention rate, without completing any of them.
func (g *GPU) advance() {
	now := g.eng.Now()
	d := now - g.lastUpdate
	g.lastUpdate = now
	if d <= 0 || len(g.running) == 0 {
		return
	}
	// Below a second d.Seconds() adds its fraction to a zero whole part,
	// so the plain quotient is the same float.
	var elapsed float64
	if d < time.Second {
		elapsed = float64(d) / 1e9
	} else {
		elapsed = d.Seconds()
	}
	// Every running kernel loses the same elapsed*rate.
	elapsed *= g.rate()
	for _, e := range g.running {
		e.remaining -= elapsed
		if e.remaining < 0 {
			e.remaining = 0
		}
	}
}

// rate is the execution speed of each co-running kernel: full speed alone,
// mildly degraded when kernels genuinely overlap, further scaled down
// while the device is in a degraded fault state.
func (g *GPU) rate() float64 {
	rate := 1.0
	if n := len(g.running); n > 1 {
		rate = 1 / (1 + contentionBeta*float64(n-1))
	}
	if g.slowdown > 1 {
		rate /= g.slowdown
	}
	return rate
}

// maxDelay bounds a completion delay in nanoseconds (about 146 years), far
// inside what a Duration holds.
const maxDelay = 1 << 62

// reschedule cancels any pending completion event and schedules one for
// the earliest-finishing running kernel.
func (g *GPU) reschedule() {
	g.completion.Cancel()
	if len(g.running) == 0 {
		return
	}
	// Dividing by the positive rate is monotone under rounding, so the
	// least remaining work divided once gives the least quotient; a lone
	// kernel on a healthy device runs at rate exactly 1.
	minLeft := g.running[0].remaining
	for _, e := range g.running[1:] {
		if e.remaining < minLeft {
			minLeft = e.remaining
		}
	}
	if rate := g.rate(); rate != 1 {
		minLeft /= rate
	}
	// Round up to a whole nanosecond so a kernel with sub-nanosecond
	// residue cannot reschedule a zero-delay completion forever.
	ns := math.Ceil(minLeft * float64(time.Second))
	if !(ns < maxDelay) {
		// The rate is at or near zero: no completion until it changes.
		return
	}
	g.completion = g.eng.After(sim.Nanos(ns), g.completeFn)
}

// loneWork bounds the solo work left, in seconds, of a lone running kernel
// that complete retires without advance. See complete.
const loneWork = 1e6

// complete retires every kernel whose work has drained, fires callbacks,
// admits waiters, and reschedules.
func (g *GPU) complete() {
	now := g.eng.Now()
	// A lone kernel retires without advance. The running set and the rate
	// have not changed since the reschedule that set this completion (every
	// change advances and reschedules), so the completion lies at least
	// ceil(r/rate*1e9) ns past lastUpdate for the kernel's work r. From r
	// to the work advance would subtract there are at most five roundings,
	// each off by at most 2^-53 relative, so advance would leave at most
	// 5*2^-53*r, under 5.6e-10 s and so within eps for r up to loneWork.
	// A completion capped at the end of virtual time is early, so it takes
	// the general path.
	if len(g.running) == 1 && g.running[0].remaining <= loneWork && now < math.MaxInt64 {
		e := g.running[0]
		g.lastUpdate = now
		g.running = g.running[:0]
		g.busy += now - g.busySince
		g.usedOcc = 0
		g.admit()
		g.retire(e, g.bus.Wants(obs.KindKernelSpan))
		if !g.completion.Scheduled() {
			g.reschedule()
		}
		return
	}
	g.advance()
	// Anything under a nanosecond of solo work is done: the event queue's
	// resolution is 1 ns, so finer residues can never drain.
	const eps = 1e-9
	done := g.done[:0]
	remaining := g.running[:0]
	for _, e := range g.running {
		if e.remaining <= eps {
			done = append(done, e)
			g.usedOcc -= e.occ
		} else {
			remaining = append(remaining, e)
		}
	}
	g.running = remaining
	if len(g.running) == 0 {
		if len(done) > 0 {
			g.busy += now - g.busySince
		}
		g.usedOcc = 0 // absorb float drift at idle points
	}
	g.admit()
	// A callback that steps the engine re-enters complete: with g.done
	// unset it stages into its own slice instead of over this batch.
	g.done = nil
	emitSpans := g.bus.Wants(obs.KindKernelSpan)
	for _, e := range done {
		g.retire(e, emitSpans)
	}
	g.done = done[:0]
	// Callbacks may have submitted new kernels (Submit reschedules), but
	// if they did not we still need a completion event for survivors.
	if !g.completion.Scheduled() {
		g.reschedule()
	}
}

// retire reports the finished kernel e, recycles its slot and fires its
// callback, through its stream if it has one. Only the callback words and
// the stream are copied out of the slot: the callback may submit a new
// kernel that reuses it.
func (g *GPU) retire(e *kernelExec, emitSpan bool) {
	if emitSpan {
		g.bus.Emit(obs.Event{
			Kind:   obs.KindKernelSpan,
			Ctx:    e.Ctx,
			Device: g.id.String(),
			Name:   e.Name,
			Start:  e.started,
			Dur:    g.eng.Now() - e.started,
		})
	}
	onDone, done, tag, s := e.OnDone, e.Done, e.Tag, e.stream
	g.recycle(e)
	if s != nil {
		s.kernelDone(onDone, done, tag)
	} else {
		fire(onDone, done, tag)
	}
}
