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
// heap, so any divergence is an Engine bug.
//
// Scripts are generated from a handrolled xorshift generator (never
// math/rand — the detrand analyzer bans it) so a failing seed reproduces
// exactly, and the same interpreter backs the quick.Check property and the
// fuzz target.

// refEngine is the event-queue contract at its plainest: an unordered
// slice searched linearly for the (at, seq) minimum on every step.
type refEngine struct {
	now     time.Duration
	seq     uint64
	fired   uint64
	pending []*refEvent
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

// Pending counts the live events; cancelled ones stay in the slice.
func (e *refEngine) Pending() int {
	n := 0
	for _, ev := range e.pending {
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
	e.pending = append(e.pending, ev)
	return refHandle{ev}
}

// min returns the position of the earliest live event, or -1.
func (e *refEngine) min() int {
	best := -1
	for i, ev := range e.pending {
		if !ev.live {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		if b := e.pending[best]; ev.at < b.at || (ev.at == b.at && ev.seq < b.seq) {
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
	ev := e.pending[i]
	e.pending = append(e.pending[:i], e.pending[i+1:]...)
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

func (e *refEngine) RunUntil(t time.Duration) {
	for {
		i := e.min()
		if i < 0 || e.pending[i].at > t {
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

// firing records one event execution: the clock the engine showed the
// callback and the script-assigned id of the event.
type firing struct {
	at time.Duration
	id int
}

// diffScript interprets a byte string as a schedule/cancel/step/run-until
// script over both engines and fails t on any observable divergence.
func diffScript(t *testing.T, data []byte) bool {
	t.Helper()
	eng := NewEngine()
	ref := &refEngine{}
	var engLog, refLog []firing
	var engEvs []Event
	var refEvs []refHandle
	nextID := 0

	schedule := func(d time.Duration) {
		id := nextID
		nextID++
		at := eng.Now() + d
		engEvs = append(engEvs, eng.Schedule(at, func() {
			engLog = append(engLog, firing{eng.Now(), id})
		}))
		refEvs = append(refEvs, ref.Schedule(at, func() {
			refLog = append(refLog, firing{ref.Now(), id})
		}))
	}

	rng := diffRNG(0xdeadbeefcafe)
	for i := 0; i < len(data); i++ {
		op := data[i] % 8
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
			schedule(time.Duration(arg(1)))
		case 2: // mid-horizon schedule
			schedule(time.Duration(arg(2)) << 4)
		case 3: // far-future schedule
			schedule(time.Duration(arg(3)) << 12)
		case 4: // cancel an arbitrary previously issued handle (may be stale)
			if n := len(engEvs); n > 0 {
				j := int(arg(2) % uint64(n))
				engEvs[j].Cancel()
				refEvs[j].Cancel()
				if engEvs[j].Scheduled() != refEvs[j].Scheduled() {
					t.Fatalf("op %d: Scheduled() diverges for handle %d: engine=%v ref=%v",
						i, j, engEvs[j].Scheduled(), refEvs[j].Scheduled())
				}
			}
		case 5: // single step
			if w, h := eng.Step(), ref.Step(); w != h {
				t.Fatalf("op %d: Step() diverges: engine=%v ref=%v", i, w, h)
			}
		case 6: // bounded advance
			d := time.Duration(arg(2))
			eng.RunUntil(eng.Now() + d)
			ref.RunUntil(ref.Now() + d)
		case 7: // reschedule storm burst: cancel-and-replace, the GPU-model pattern
			for k := uint64(0); k < arg(1)%16; k++ {
				if n := len(engEvs); n > 0 {
					j := int(rng.next() % uint64(n))
					engEvs[j].Cancel()
					refEvs[j].Cancel()
				}
				schedule(time.Duration(rng.next() % 4096))
			}
		}
		if eng.Now() != ref.Now() {
			t.Fatalf("op %d: clock diverges: engine=%v ref=%v", i, eng.Now(), ref.Now())
		}
		if len(eng.heap) != ref.Pending() {
			t.Fatalf("op %d: Pending() diverges: engine=%d ref=%d", i, len(eng.heap), ref.Pending())
		}
	}

	eng.Run()
	ref.Run()
	compareRuns(t, eng, ref, engLog, refLog)
	return true
}

// compareRuns fails t unless the two engines fired the same events at the
// same times and ended on the same counters.
func compareRuns(t *testing.T, eng *Engine, ref *refEngine, engLog, refLog []firing) {
	t.Helper()
	if eng.Fired() != ref.Fired() {
		t.Fatalf("Fired() diverges: engine=%d ref=%d", eng.Fired(), ref.Fired())
	}
	if eng.Now() != ref.Now() {
		t.Fatalf("final clock diverges: engine=%v ref=%v", eng.Now(), ref.Now())
	}
	if len(engLog) != len(refLog) {
		t.Fatalf("firing count diverges: engine=%d ref=%d", len(engLog), len(refLog))
	}
	for i := range engLog {
		if engLog[i] != refLog[i] {
			t.Fatalf("firing %d diverges: engine=%+v ref=%+v", i, engLog[i], refLog[i])
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
// advances and cancel-and-replace storms.
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
	eng := NewEngine()
	ref := &refEngine{}
	var engLog, refLog []firing
	rng := diffRNG(42)
	for i := 0; i < 2000; i++ {
		id := i
		d := time.Duration(rng.next() % (1 << uint(10+rng.next()%31)))
		at := eng.Now() + d
		eng.Schedule(at, func() { engLog = append(engLog, firing{eng.Now(), id}) })
		ref.Schedule(at, func() { refLog = append(refLog, firing{ref.Now(), id}) })
		if i%64 == 0 {
			eng.Step()
			ref.Step()
		}
	}
	eng.Run()
	ref.Run()
	compareRuns(t, eng, ref, engLog, refLog)
}

// FuzzEngineMatchesReference lets the fuzzer mutate raw op scripts
// directly, so it can steer into orderings the seeded generator never
// produces.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{0, 10, 5, 5, 5})
	f.Add(scriptFromSeed(1, 256))
	f.Add(scriptFromSeed(0xfeed, 1024))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		diffScript(t, data)
	})
}
