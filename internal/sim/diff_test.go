package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// The differential tests in this file drive the Engine and refEngine, a
// naive reference kept in test code, with byte-for-byte identical
// schedule/cancel/step/run-until scripts and assert that the two produce the
// same firing sequence, the same clock, and the same counters. The
// reference's behaviour is the specification: it shares no code with the
// heap, so any divergence is an Engine bug. Every scripted event also
// carries an action its callback performs in whichever engine fires it:
// schedule a child, cancel a handle or its own, or fire re-entrantly with
// Step or RunUntil. That is where fire-in-place differs from a plain pop.
// Some events go through one of diffLanes lanes on the Engine; the
// reference schedules each of those as a plain event, and neither side
// gets a handle that could cancel it.
//
// Scripts are generated from a handrolled xorshift generator (never
// math/rand — the detrand analyzer bans it) so a failing seed reproduces
// exactly, and the same interpreter backs the quick.Check property and the
// fuzz target.

// refEngine is the event-queue contract at its plainest: an unordered
// slice searched linearly for the (at, seq) minimum on every step.
type refEngine struct {
	now   time.Duration
	seq   uint64
	fired uint64
	queue []*refEvent
}

// refEvent is one scheduled callback; it is never reused, so a handle to
// a fired or cancelled event stays inert.
type refEvent struct {
	at   time.Duration
	seq  uint64
	fn   func()
	live bool
}

// refHandle mirrors Event.
type refHandle struct{ ev *refEvent }

func (h refHandle) Cancel() {
	if h.ev != nil {
		h.ev.live = false
	}
}

func (h refHandle) Scheduled() bool { return h.ev != nil && h.ev.live }

func (e *refEngine) Now() time.Duration { return e.now }
func (e *refEngine) Fired() uint64      { return e.fired }

// pending counts the live events; cancelled ones stay in the slice.
func (e *refEngine) pending() int {
	n := 0
	for _, ev := range e.queue {
		if ev.live {
			n++
		}
	}
	return n
}

func (e *refEngine) Schedule(at time.Duration, fn func()) refHandle {
	if at < e.now {
		panic("ref: schedule in the past")
	}
	e.seq++
	ev := &refEvent{at: at, seq: e.seq, fn: fn, live: true}
	e.queue = append(e.queue, ev)
	return refHandle{ev}
}

// min returns the position of the earliest live event, or -1.
func (e *refEngine) min() int {
	best := -1
	for i, ev := range e.queue {
		if !ev.live {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		if b := e.queue[best]; ev.at < b.at || (ev.at == b.at && ev.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (e *refEngine) Step() bool {
	i := e.min()
	if i < 0 {
		return false
	}
	ev := e.queue[i]
	e.queue = append(e.queue[:i], e.queue[i+1:]...)
	ev.live = false
	e.now = ev.at
	e.fired++
	ev.fn()
	return true
}

func (e *refEngine) Run() {
	for e.Step() {
	}
}

func (e *refEngine) schedule(at time.Duration, fn func()) diffHandle {
	return e.Schedule(at, fn)
}

func (e *refEngine) laneAfter(_ int, d time.Duration, fn func()) {
	e.Schedule(e.now+d, fn)
}

func (e *refEngine) RunUntil(t time.Duration) {
	for {
		i := e.min()
		if i < 0 || e.queue[i].at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// diffRNG is a xorshift64* generator; deterministic, seedable, dependency
// free.
type diffRNG uint64

func (r *diffRNG) next() uint64 {
	x := uint64(*r)
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = diffRNG(x)
	return x * 0x2545f4914f6cdd1d
}

// diffEngine is what a script drives; engSide and refEngine implement it.
type diffEngine interface {
	Now() time.Duration
	Fired() uint64
	Step() bool
	Run()
	RunUntil(t time.Duration)
	schedule(at time.Duration, fn func()) diffHandle
	// laneAfter is After through lane number lane, with no handle.
	laneAfter(lane int, d time.Duration, fn func())
	pending() int
}

// diffHandle is the part of Event and refHandle a script uses.
type diffHandle interface {
	Cancel()
	Scheduled() bool
}

// noHandle stands in for a lane item's missing handle on both sides: it
// cancels nothing and reports nothing scheduled.
type noHandle struct{}

func (noHandle) Cancel()         {}
func (noHandle) Scheduled() bool { return false }

// diffLanes is the number of lanes a script can schedule through.
const diffLanes = 3

// engSide adapts the Engine and its lanes to diffEngine.
type engSide struct {
	*Engine
	lanes []*Lane
}

// newEngSide returns an engine with diffLanes lanes, each sized so that
// scripts also make it grow.
func newEngSide() engSide {
	s := engSide{Engine: NewEngine()}
	for i := 0; i < diffLanes; i++ {
		s.lanes = append(s.lanes, s.NewLane(2))
	}
	return s
}

func (s engSide) schedule(at time.Duration, fn func()) diffHandle {
	return s.Schedule(at, fn)
}

func (s engSide) laneAfter(lane int, d time.Duration, fn func()) {
	s.lanes[lane].After(d, fn)
}

// pending counts the events still to fire: the heap, less the spent root
// while a callback runs, plus the lane items not yet in the heap.
func (s engSide) pending() int {
	n := len(s.heap)
	if s.spent {
		n--
	}
	for _, l := range s.lanes {
		n += l.n
		if l.armed != nil {
			n--
		}
	}
	return n
}

// firing records one event execution: what the callback saw on entry (the
// clock, the pending count and whether its own handle was still
// scheduled), and what its action left behind.
type firing struct {
	at      time.Duration
	id      int
	pending int
	own     bool
	// after, afterPending and result are read when the action returns;
	// result is Step's return, or Scheduled() on a handle just cancelled.
	after        time.Duration
	afterPending int
	result       bool
}

// diffAction is what an event's callback does besides logging. kind picks
// one of: 0 nothing, 1-3 schedule a child at a near, mid or far delay, 4
// cancel the handle with id arg mod issued, 5 cancel its own handle, 6
// Step, 7 RunUntil arg ns ahead, 8 schedule a child through a lane at a
// near delay. depth counts the callback-scheduled ancestors; children stop
// at diffMaxDepth so every script drains.
type diffAction struct {
	kind  uint8
	arg   uint32
	depth uint8
}

const (
	diffKinds    = 9
	diffMaxDepth = 3
)

// childAction derives the action of the event scheduled by id's callback.
// It depends on id alone, so both engines give a child the same action.
func childAction(id int, depth uint8) diffAction {
	r := diffRNG(uint64(id+1) * 0x9e3779b97f4a7c15)
	v := r.next()
	return diffAction{kind: uint8(v % diffKinds), arg: uint32(v >> 32), depth: depth}
}

// diffSide is one engine under a script: the handles it issued, indexed
// by script id, and the log of its callbacks.
type diffSide struct {
	eng diffEngine
	evs []diffHandle
	log []firing
}

// add schedules the event with the next id at at.
func (s *diffSide) add(at time.Duration, act diffAction) {
	id := len(s.evs)
	s.evs = append(s.evs, s.eng.schedule(at, func() { s.fire(id, act) }))
}

// addLane schedules the event with the next id d from now through lane.
func (s *diffSide) addLane(lane int, d time.Duration, act diffAction) {
	id := len(s.evs)
	s.evs = append(s.evs, noHandle{})
	s.eng.laneAfter(lane, d, func() { s.fire(id, act) })
}

// fire is event id's callback: it logs, then performs act.
func (s *diffSide) fire(id int, act diffAction) {
	e, own := s.eng, s.evs[id]
	i := len(s.log)
	s.log = append(s.log, firing{at: e.Now(), id: id, pending: e.pending(), own: own.Scheduled()})
	result := false
	switch act.kind {
	case 1, 2, 3:
		if act.depth < diffMaxDepth {
			d := time.Duration(act.arg % 256) // near: ties with pending events
			if act.kind == 2 {
				d = time.Duration(act.arg%(1<<16)) << 4
			} else if act.kind == 3 {
				d = time.Duration(act.arg%(1<<24)) << 12
			}
			s.add(e.Now()+d, childAction(len(s.evs), act.depth+1))
		}
	case 4:
		h := s.evs[int(act.arg)%len(s.evs)]
		h.Cancel()
		result = h.Scheduled()
	case 5:
		own.Cancel()
		result = own.Scheduled()
	case 6:
		result = e.Step()
	case 7:
		e.RunUntil(e.Now() + time.Duration(act.arg%(1<<12)))
	case 8:
		if act.depth < diffMaxDepth {
			d := time.Duration(act.arg >> 8 % 256)
			s.addLane(int(act.arg%diffLanes), d, childAction(len(s.evs), act.depth+1))
		}
	}
	s.log[i].after, s.log[i].afterPending, s.log[i].result = e.Now(), e.pending(), result
}

// diffScript interprets a byte string as a schedule/cancel/step/run-until
// script over both engines and fails t on any observable divergence.
func diffScript(t *testing.T, data []byte) bool {
	t.Helper()
	eng := &diffSide{eng: newEngSide()}
	ref := &diffSide{eng: &refEngine{}}
	sides := []*diffSide{eng, ref}

	schedule := func(d time.Duration, a uint64) {
		act := diffAction{kind: uint8(a % diffKinds), arg: uint32(a >> 4)}
		for _, s := range sides {
			s.add(s.eng.Now()+d, act)
		}
	}
	scheduleLane := func(lane uint64, d time.Duration, a uint64) {
		act := diffAction{kind: uint8(a % diffKinds), arg: uint32(a >> 4)}
		for _, s := range sides {
			s.addLane(int(lane%diffLanes), d, act)
		}
	}

	rng := diffRNG(0xdeadbeefcafe)
	for i := 0; i < len(data); i++ {
		op := data[i] % 10
		arg := func(n int) uint64 {
			v := uint64(0)
			for ; n > 0 && i+1 < len(data); n-- {
				i++
				v = v<<8 | uint64(data[i])
			}
			return v
		}
		switch op {
		case 0, 1: // near-horizon schedule: many equal timestamps
			schedule(time.Duration(arg(1)), arg(2))
		case 2: // mid-horizon schedule
			schedule(time.Duration(arg(2))<<4, arg(2))
		case 3: // far-future schedule
			schedule(time.Duration(arg(3))<<12, arg(2))
		case 4: // cancel an arbitrary previously issued handle (may be stale)
			if n := len(eng.evs); n > 0 {
				j := int(arg(2) % uint64(n))
				for _, s := range sides {
					s.evs[j].Cancel()
				}
				if eng.evs[j].Scheduled() != ref.evs[j].Scheduled() {
					t.Fatalf("op %d: Scheduled() diverges for handle %d: engine=%v ref=%v",
						i, j, eng.evs[j].Scheduled(), ref.evs[j].Scheduled())
				}
			}
		case 5: // single step
			if w, h := eng.eng.Step(), ref.eng.Step(); w != h {
				t.Fatalf("op %d: Step() diverges: engine=%v ref=%v", i, w, h)
			}
		case 6: // bounded advance
			d := time.Duration(arg(2))
			for _, s := range sides {
				s.eng.RunUntil(s.eng.Now() + d)
			}
		case 7: // reschedule storm burst: cancel-and-replace, the GPU-model pattern
			for k := uint64(0); k < arg(1)%16; k++ {
				if n := len(eng.evs); n > 0 {
					j := int(rng.next() % uint64(n))
					for _, s := range sides {
						s.evs[j].Cancel()
					}
				}
				schedule(time.Duration(rng.next()%4096), rng.next())
			}
		case 8: // lane schedule, near horizon: ties within and across lanes
			scheduleLane(arg(1), time.Duration(arg(1)%16), arg(2))
		case 9: // lane schedule, mid horizon: out of order within a lane
			scheduleLane(arg(1), time.Duration(arg(2))<<4, arg(2))
		}
		if eng.eng.Now() != ref.eng.Now() {
			t.Fatalf("op %d: clock diverges: engine=%v ref=%v", i, eng.eng.Now(), ref.eng.Now())
		}
		if eng.eng.pending() != ref.eng.pending() {
			t.Fatalf("op %d: pending diverges: engine=%d ref=%d", i, eng.eng.pending(), ref.eng.pending())
		}
		if len(eng.evs) != len(ref.evs) {
			t.Fatalf("op %d: handles issued diverge: engine=%d ref=%d", i, len(eng.evs), len(ref.evs))
		}
	}

	for _, s := range sides {
		s.eng.Run()
	}
	compareRuns(t, eng, ref)
	return true
}

// compareRuns fails t unless the two engines fired the same events at the
// same times, their callbacks saw the same things, and they ended on the
// same counters.
func compareRuns(t *testing.T, eng, ref *diffSide) {
	t.Helper()
	if eng.eng.Fired() != ref.eng.Fired() {
		t.Fatalf("Fired() diverges: engine=%d ref=%d", eng.eng.Fired(), ref.eng.Fired())
	}
	if eng.eng.Now() != ref.eng.Now() {
		t.Fatalf("final clock diverges: engine=%v ref=%v", eng.eng.Now(), ref.eng.Now())
	}
	if len(eng.log) != len(ref.log) {
		t.Fatalf("firing count diverges: engine=%d ref=%d", len(eng.log), len(ref.log))
	}
	for i := range eng.log {
		if eng.log[i] != ref.log[i] {
			t.Fatalf("firing %d diverges: engine=%+v ref=%+v", i, eng.log[i], ref.log[i])
		}
	}
}

// scriptFromSeed expands a seed into a pseudo-random op script.
func scriptFromSeed(seed uint64, n int) []byte {
	rng := diffRNG(seed)
	data := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := rng.next()
		for j := 0; j < 8 && i+j < n; j++ {
			data[i+j] = byte(v >> (8 * j))
		}
	}
	return data
}

// TestEngineMatchesReferenceProperty checks the equivalence contract over
// generated scripts: ties, cancels of live and stale handles, bounded
// advances, cancel-and-replace storms, schedules through lanes, and
// callbacks that schedule (into the heap or a lane), cancel and fire
// re-entrantly.
func TestEngineMatchesReferenceProperty(t *testing.T) {
	prop := func(seed uint64, size uint16) bool {
		n := 64 + int(size)%4096
		return diffScript(t, scriptFromSeed(seed, n))
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEngineMatchesReferenceDeepHorizon pins down a deep queue whose delays
// span 1 ns to ~18 minutes, fired in (at, seq) order.
func TestEngineMatchesReferenceDeepHorizon(t *testing.T) {
	eng := &diffSide{eng: newEngSide()}
	ref := &diffSide{eng: &refEngine{}}
	rng := diffRNG(42)
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.next() % (1 << uint(10+rng.next()%31)))
		for _, s := range []*diffSide{eng, ref} {
			s.add(s.eng.Now()+d, diffAction{})
			if i%64 == 0 {
				s.eng.Step()
			}
		}
	}
	eng.eng.Run()
	ref.eng.Run()
	compareRuns(t, eng, ref)
}

// FuzzEngineMatchesReference lets the fuzzer mutate raw op scripts
// directly, so it can steer into orderings the seeded generator never
// produces.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{0, 10, 5, 5, 5})
	f.Add(scriptFromSeed(1, 256))
	f.Add(scriptFromSeed(0xfeed, 1024))
	// Lane items A at 5 and B at 10, then a plain event X at 10; A's
	// callback steps re-entrantly. B must be armed when A's callback runs,
	// and at its own sequence number, which orders it before X.
	f.Add([]byte{8, 0, 5, 0, 6, 8, 0, 10, 0, 0, 0, 10, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		diffScript(t, data)
	})
}
