// Package sim provides a deterministic discrete-event simulation engine.
//
// All SwitchFlow experiments run in virtual time: durations are
// time.Duration values measured from the start of the simulation, and every
// state change happens inside an event callback. Events scheduled for the
// same instant fire in the order they were scheduled, which makes runs
// bit-for-bit reproducible.
//
// The pending set is a 4-ary min-heap ordered by (at, seq): virtual time,
// then schedule order. A source with many long-lived events, such as a
// job's tf.data worker pool, sends them through a Lane, which keeps only
// its earliest event in the heap. The heap therefore stays a few entries
// deep: the deepest any Schedule saw over the benchmark workloads and the
// swbench sweeps is 20, down from 191 while every data-pool event sat in
// the heap. Fired and cancelled events return to a free list, so
// steady-state Schedule/Step cycles allocate nothing, and Cancel removes
// the event from the heap instead of leaving a tombstone behind.
//
// An event fires in place: it stays at the heap root, spent, while its
// callback runs, and the first event the callback schedules takes the root
// with one sift-down. Most callbacks schedule the next event of the same
// chain, so one sift-down replaces the pop-then-push each fire would
// otherwise cost. A callback that schedules nothing leaves the spent root
// to be popped when it returns, and a callback that calls Step or RunUntil
// on its own engine pops it before the nested fire.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Event is a handle to a scheduled callback, returned by Schedule and
// After. The zero value is a valid "no event" handle. Handles are small
// values; copying one copies the right to cancel the same event.
type Event struct {
	ev  *event
	seq uint64
}

// Cancel prevents the event from firing and removes it from the engine's
// pending set. Cancelling the zero handle, or an event that already fired
// or was already cancelled, is a no-op: the handle carries the scheduling
// generation, so a stale handle can never cancel a recycled event.
func (h Event) Cancel() {
	ev := h.ev
	if ev == nil || ev.seq != h.seq {
		return
	}
	ev.eng.remove(ev)
}

// Scheduled reports whether the event is still pending: false for the zero
// handle and once the event has fired or been cancelled.
func (h Event) Scheduled() bool {
	return h.ev != nil && h.ev.seq == h.seq
}

// event is the engine-owned state behind an Event handle. Fired and
// cancelled events are recycled through the engine's free list; seq is
// bumped to zero when the event fires or is cancelled, so outstanding
// handles go inert.
type event struct {
	eng   *Engine
	at    time.Duration
	seq   uint64
	fn    func()
	index int32 // heap position; -1 while on the free list
}

// Engine is a virtual-time event loop. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now   time.Duration
	seq   uint64
	fired uint64
	heap  []*event // 4-ary min-heap ordered by (at, seq)
	free  []*event // recycled event structs
	// spent is set while heap[0] is the firing event, kept in place for
	// the first Schedule its callback makes. Its seq is zero, so it
	// orders before every pending event and no handle matches it; it is
	// not pending.
	spent bool
}

// NewEngine returns an empty engine positioned at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events executed so far. Useful for tests and
// for guarding against runaway simulations.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule registers fn to run at absolute virtual time at. Scheduling in
// the past is an error surfaced as a panic because it always indicates a
// simulation bug, never a recoverable condition.
func (e *Engine) Schedule(at time.Duration, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	return Event{ev: e.push(at, e.seq, fn), seq: e.seq}
}

// push adds fn to the heap at (at, seq); at must not be before now.
func (e *Engine) push(at time.Duration, seq uint64, fn func()) *event {
	if e.spent {
		// The spent root orders before every pending event and at is not
		// before it, so the new event reuses its struct and sifts down
		// from the root.
		e.spent = false
		ev := e.heap[0]
		ev.at, ev.seq, ev.fn = at, seq, fn
		e.down(0)
		return ev
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e}
	}
	ev.at, ev.seq, ev.fn = at, seq, fn
	ev.index = int32(len(e.heap))
	e.heap = append(e.heap, ev)
	e.up(int(ev.index))
	return ev
}

// After registers fn to run d from the current virtual time, at Due(d).
func (e *Engine) After(d time.Duration, fn func()) Event {
	return e.Schedule(e.Due(d), fn)
}

// Due returns the instant d from the current virtual time: negative d is
// treated as zero, and a d past the end of virtual time is capped there
// instead of wrapping around into the past. It is written with min and
// max, which keeps After within the inliner's budget.
func (e *Engine) Due(d time.Duration) time.Duration {
	return e.now + min(max(d, 0), math.MaxInt64-e.now)
}

// Nanos converts a float count of nanoseconds to a Duration. In range it
// truncates toward zero, as a conversion does. Out of range, where Go
// leaves the conversion implementation-defined (amd64 gives MinInt64),
// it saturates: at or past ±MaxInt64 it gives ±MaxInt64. NaN gives 0.
// The durconv analyzer keeps every other float-to-Duration conversion
// out of production code.
func Nanos(ns float64) time.Duration {
	if -math.MaxInt64 < ns && ns < math.MaxInt64 {
		return time.Duration(ns) //swlint:allow durconv the one conversion, range-checked here
	}
	if ns > 0 {
		return math.MaxInt64
	}
	if ns < 0 {
		return -math.MaxInt64 //swlint:allow sentinelval the saturated value, not a sentinel
	}
	return 0 // NaN
}

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	return len(e.heap) > 0 && e.fire(math.MaxInt64)
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
// Events scheduled during the run are honoured if they fall within the
// horizon.
func (e *Engine) RunUntil(t time.Duration) {
	for len(e.heap) > 0 && e.heap[0].at <= t && e.fire(t) {
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor is RunUntil relative to the current time.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now + d)
}

// less orders events by (time, schedule order), the contract that makes
// simulations reproducible.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// fire runs the heap's minimum in place, if it is due by t, and reports
// whether it ran: it advances the clock, marks the root spent and runs the
// callback, then pops the root unless the callback scheduled an event into
// it. The heap must be non-empty. Entered from a callback (Step or
// RunUntil on its own engine), fire first pops the caller's spent root and
// checks the heap again.
func (e *Engine) fire(t time.Duration) bool {
	if e.spent {
		e.retire()
		if len(e.heap) == 0 || e.heap[0].at > t {
			return false
		}
	}
	ev := e.heap[0]
	e.now = ev.at
	fn := ev.fn
	ev.fn = nil
	ev.seq = 0
	e.spent = true
	e.fired++
	fn()
	if e.spent {
		e.retire()
	}
	return true
}

// retire pops and recycles the spent root.
func (e *Engine) retire() {
	e.spent = false
	ev := e.heap[0]
	e.removeAt(0)
	e.recycle(ev)
}

// remove deletes a still-pending ev from the heap and recycles it (the
// Cancel path).
func (e *Engine) remove(ev *event) {
	e.removeAt(int(ev.index))
	e.recycle(ev)
}

// removeAt takes the event at heap position i out of the heap, moving the
// last event into its place and restoring heap order around it.
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.heap[i] = last
	last.index = int32(i)
	e.down(i)
	if int(last.index) == i {
		e.up(i)
	}
}

// recycle invalidates outstanding handles to ev and returns it to the free
// list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.seq = 0
	ev.index = -1
	e.free = append(e.free, ev)
}

// up restores heap order above position i.
func (e *Engine) up(i int) {
	ev := e.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(ev, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.heap[i].index = int32(i)
		i = p
	}
	e.heap[i] = ev
	ev.index = int32(i)
}

// down restores heap order below position i.
func (e *Engine) down(i int) {
	ev := e.heap[i]
	n := len(e.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for k := c + 1; k < end; k++ {
			if less(e.heap[k], e.heap[m]) {
				m = k
			}
		}
		if !less(e.heap[m], ev) {
			break
		}
		e.heap[i] = e.heap[m]
		e.heap[i].index = int32(i)
		i = m
	}
	e.heap[i] = ev
	ev.index = int32(i)
}
