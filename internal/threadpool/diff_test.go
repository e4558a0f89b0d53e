package threadpool

import (
	"testing"
	"time"

	"switchflow/internal/sim"
)

// poolSide is one pool under a script, on its own engine.
type poolSide struct {
	eng    *sim.Engine
	pool   *Pool
	log    []poolFiring
	issued int
	fireFn func(arg uint64) // ran, in Task.Fire form, bound once
}

// poolFiring is one task run: when, and which task by script id.
type poolFiring struct {
	at time.Duration
	id int
}

const poolMaxDepth = 3

func newPoolSide(p *Pool, eng *sim.Engine) *poolSide {
	s := &poolSide{eng: eng, pool: p}
	s.fireFn = func(arg uint64) { s.ran(int(arg>>8), int(arg&0xff)) }
	return s
}

// poolMix is a splitmix64 step: the test's deterministic source of task
// actions and script arguments.
func poolMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// submit hands the pool the task with the next id; v picks its
// affinity, queue end and owner. Every other task uses Fire/Arg.
func (s *poolSide) submit(d time.Duration, v uint64, depth int) {
	id := s.issued
	s.issued++
	t := Task{Name: "t", Owner: int(v % 3), Duration: d}
	if id%2 == 0 {
		t.Run = func() { s.ran(id, depth) }
	} else {
		t.Fire, t.Arg = s.fireFn, uint64(id)<<8|uint64(depth)
	}
	preferred := int(v>>2%uint64(len(s.pool.workers)+1)) - 1
	s.pool.Submit(&t, preferred, v>>8&1 == 1)
}

// ran is task id's callback: it logs, then acts on a value derived from
// id alone, so both sides act alike.
func (s *poolSide) ran(id, depth int) {
	s.log = append(s.log, poolFiring{at: s.eng.Now(), id: id})
	if depth >= poolMaxDepth {
		return
	}
	v := poolMix(uint64(id))
	switch v % 5 {
	case 1: // a successor with a tie-prone duration
		s.submit(time.Duration(v>>16%8), v>>24, depth+1)
	case 2: // a successor due later
		s.submit(time.Duration(v>>16%4096)<<4, v>>32, depth+1)
	case 3:
		s.pool.Abort(int(v >> 16 % 3))
	case 4: // a plain engine event that submits when it fires
		s.eng.After(time.Duration(v>>16%64), func() { s.submit(time.Duration(v>>24%16), v>>32, depth+1) })
	}
}

// poolScript runs data as a script over both sides and fails t on any
// divergence.
func poolScript(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	workers := 1 + int(data[0]%8)
	laneEng, heapEng := sim.NewEngine(), sim.NewEngine()
	lane := newPoolSide(NewData(laneEng, "data", workers), laneEng)
	heap := newPoolSide(New(heapEng, "data", workers), heapEng)
	sides := []*poolSide{lane, heap}
	for i := 1; i < len(data); i++ {
		op := data[i] % 7
		arg := func(n int) uint64 {
			v := uint64(0)
			for ; n > 0 && i+1 < len(data); n-- {
				i++
				v = v<<8 | uint64(data[i])
			}
			return v
		}
		switch op {
		case 0, 1: // near: many equal finish times
			d, v := time.Duration(arg(1)%16), arg(2)
			for _, s := range sides {
				s.submit(d, v, 0)
			}
		case 2: // far: finishes out of submission order
			d, v := time.Duration(arg(2))<<4, arg(2)
			for _, s := range sides {
				s.submit(d, v, 0)
			}
		case 3:
			owner := int(arg(1) % 3)
			a, b := lane.pool.Abort(owner), heap.pool.Abort(owner)
			if a != b {
				t.Fatalf("op %d: Abort(%d) removed %d on the lane, %d on the heap", i, owner, a, b)
			}
		case 4:
			if a, b := lane.eng.Step(), heap.eng.Step(); a != b {
				t.Fatalf("op %d: Step() = %v on the lane, %v on the heap", i, a, b)
			}
		case 5:
			d := time.Duration(arg(2))
			for _, s := range sides {
				s.eng.RunUntil(s.eng.Now() + d)
			}
		case 6: // a plain engine event that submits when it fires
			d, v := time.Duration(arg(1)%32), arg(2)
			for _, s := range sides {
				s.eng.After(d, func() { s.submit(time.Duration(v%16), v>>4, 0) })
			}
		}
		if lane.eng.Now() != heap.eng.Now() || lane.pool.busy != heap.pool.busy ||
			lane.pool.queued != heap.pool.queued || len(lane.log) != len(heap.log) {
			t.Fatalf("op %d: lane at %v busy %d queued %d ran %d; heap at %v busy %d queued %d ran %d", i,
				lane.eng.Now(), lane.pool.busy, lane.pool.queued, len(lane.log),
				heap.eng.Now(), heap.pool.busy, heap.pool.queued, len(heap.log))
		}
	}
	for _, s := range sides {
		s.eng.Run()
	}
	if lane.eng.Fired() != heap.eng.Fired() {
		t.Fatalf("Fired() = %d on the lane, %d on the heap", lane.eng.Fired(), heap.eng.Fired())
	}
	if len(lane.log) != len(heap.log) {
		t.Fatalf("%d tasks ran on the lane, %d on the heap", len(lane.log), len(heap.log))
	}
	for i := range lane.log {
		if lane.log[i] != heap.log[i] {
			t.Fatalf("run %d: lane %+v, heap %+v", i, lane.log[i], heap.log[i])
		}
	}
}

// poolScriptFromSeed expands a seed into an n-byte script.
func poolScriptFromSeed(seed uint64, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		seed = poolMix(seed)
		data[i] = byte(seed)
	}
	return data
}

// FuzzDataPoolMatchesHeap drives a NewData pool, whose finishes go through
// a sim.Lane, and a New pool, whose finishes are plain engine events, on
// two engines with the same script, and requires the same (time, task)
// firing log, the same counters and the same Fired() from both. Scripts
// submit with and without affinity, at the front and the back, abort
// owners, step and advance the engines, and schedule plain engine events
// between the pool's; task callbacks submit, abort and schedule too.
func FuzzDataPoolMatchesHeap(f *testing.F) {
	// Four workers, eight equal-length submits: the preprocess shards a
	// batch starts together, with ties on every finish.
	f.Add([]byte{3, 0, 5, 0, 0, 0, 5, 0, 1, 0, 5, 0, 2, 0, 5, 0, 3, 0, 5, 1, 0, 0, 5, 1, 1, 0, 5, 1, 2, 0, 5, 1, 3, 4, 4, 5, 0, 16})
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(poolScriptFromSeed(seed, 64<<(seed%4)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		poolScript(t, data)
	})
}
