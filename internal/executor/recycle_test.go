package executor

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/graph"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
)

// recycleWorld is one replay of a decoded op sequence: two V100s, one
// shared pool and one stream per GPU, and four subgraphs. Two graphs are
// partitioned: a CPU stage whose Sends cross two host-to-device engines
// into both GPUs, a gpu:0 stage whose Send crosses the peer link, and a
// gpu:1 stage; a third, GPU-only graph also runs on gpu:0's stream.
type recycleWorld struct {
	eng     *sim.Engine
	machine *device.Machine
	pool    *threadpool.Pool
	streams []*device.Stream
	subs    []*graph.Subgraph
	rec     obs.Recorder
	// log holds every onDone and drain callback, with the slot, the life
	// of the slot it belongs to and the virtual time.
	log   []string
	slots []recycleSlot
	// fresh clears every subgraph's free list before each Start, so no
	// Run is ever reused.
	fresh bool
	t     *testing.T
}

// recycleSlot holds at most one live Run; life counts the Runs it held.
type recycleSlot struct {
	run     *Run
	life    int
	drained bool
}

// recycleSlots maps six slots onto the four subgraphs, so two subgraphs
// can have two lives in flight at once.
const recycleSlots = 6

func newRecycleWorld(t *testing.T, fresh bool) *recycleWorld {
	w := &recycleWorld{eng: sim.NewEngine(), fresh: fresh, t: t, slots: make([]recycleSlot, recycleSlots)}
	w.machine = device.NewMachine(w.eng, device.ClassXeonDual, device.ClassV100, device.ClassV100)
	w.pool = threadpool.New(w.eng, "global", 4)
	w.streams = []*device.Stream{device.NewStream(w.machine.GPU(0)), device.NewStream(w.machine.GPU(1))}
	w.machine.Bus().Subscribe(&w.rec, obs.KindOpSched, obs.KindLaunch, obs.KindKernelSpan)

	g := graph.New("staged")
	pre0 := g.AddNode(&graph.Node{Name: "pre0", Op: graph.OpPreprocess, Device: device.CPUID,
		CPUTime: 300 * time.Microsecond, OutputBytes: 4 << 20})
	pre1 := g.AddNode(&graph.Node{Name: "pre1", Op: graph.OpPreprocess, Device: device.CPUID,
		CPUTime: 200 * time.Microsecond, OutputBytes: 2 << 20})
	var prev *graph.Node
	for i := 0; i < 4; i++ {
		n := g.AddNode(&graph.Node{Name: fmt.Sprintf("conv%d", i), Op: graph.OpConv2D,
			Device: device.GPUID(0), FLOPs: float64(i+1) * 2e9, OutputBytes: 8 << 20})
		if prev == nil {
			g.Connect(pre0, n)
		} else {
			g.Connect(prev, n)
		}
		prev = n
	}
	fc := g.AddNode(&graph.Node{Name: "fc", Op: graph.OpDense, Device: device.GPUID(1), FLOPs: 3e9})
	g.Connect(pre1, fc)
	g.Connect(prev, fc)
	staged, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}

	h := graph.New("wide")
	var layer []*graph.Node
	for l := 0; l < 3; l++ {
		var next []*graph.Node
		for i := 0; i < 2; i++ {
			n := h.AddNode(&graph.Node{Name: fmt.Sprintf("w%d.%d", l, i), Op: graph.OpConv2D,
				Device: device.GPUID(0), FLOPs: 1.5e9})
			for _, p := range layer {
				h.Connect(p, n)
			}
			next = append(next, n)
		}
		layer = next
	}
	wide, err := graph.Partition(h)
	if err != nil {
		t.Fatal(err)
	}
	w.subs = append(staged, wide...)
	if len(w.subs) != 4 {
		t.Fatalf("%d subgraphs, want 4", len(w.subs))
	}
	return w
}

func (w *recycleWorld) record(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.eng.Now())+fmt.Sprintf(format, args...))
}

func (w *recycleWorld) start(s int) {
	slot := &w.slots[s]
	if slot.run != nil {
		return
	}
	sub := w.subs[s%len(w.subs)]
	if w.fresh {
		sub.Plan().Spare = nil
	}
	cfg := Config{Pool: w.pool, CPUClass: w.machine.CPU, Machine: w.machine, Bus: w.machine.Bus(), Ctx: s + 1}
	if sub.Device.Kind == device.KindGPU {
		cfg.Stream = w.streams[sub.Device.Index]
	}
	slot.life++
	life := slot.life
	run, err := Start(w.eng, sub, cfg, func() {
		if slot.run == nil || slot.life != life {
			w.t.Fatalf("slot %d: onDone of life %d fired while life %d holds the slot", s, life, slot.life)
		}
		w.record("done %d.%d", s, life)
		slot.run = nil
	})
	if err != nil {
		w.t.Fatal(err)
	}
	slot.run, slot.drained = run, false
}

func (w *recycleWorld) suspend(s int) {
	slot := &w.slots[s]
	if slot.run == nil || slot.run.Suspended() {
		return
	}
	life := slot.life
	slot.run.Suspend(func() {
		w.record("drained %d.%d", s, life)
		if slot.life == life {
			slot.drained = true
		}
	})
}

func (w *recycleWorld) resume(s int) {
	slot := &w.slots[s]
	if slot.run == nil || !slot.run.Suspended() || !slot.drained {
		return
	}
	slot.drained = false
	slot.run.Resume()
}

func (w *recycleWorld) abort(s int) {
	slot := &w.slots[s]
	if slot.run == nil {
		return
	}
	w.record("abort %d.%d", s, slot.life)
	slot.run.Abort()
	slot.run = nil
}

// Op kinds of the fuzz input: the low three bits of each byte.
const (
	opStart   = 0 // and 1
	opSuspend = 2
	opResume  = 3
	opAbort   = 4
	opStep    = 5 // fire arg+1 events
	opWait    = 6 // and 7: advance arg*40µs
)

// op encodes one fuzz input byte.
func op(kind, arg int) byte { return byte(arg<<3 | kind) }

// replay decodes ops: the low three bits pick start, suspend, resume,
// abort, or advance the engine by a number of events or of microseconds;
// the rest is the slot or the amount. Afterwards every live Run finishes:
// one whose queued kernels another Run's suspension dropped from the
// shared stream is suspended and resumed, which re-dispatches them.
func (w *recycleWorld) replay(ops []byte) {
	for _, b := range ops {
		arg := int(b >> 3)
		s := arg % recycleSlots
		switch b & 7 {
		case opStart, opStart + 1:
			w.start(s)
		case opSuspend:
			w.suspend(s)
		case opResume:
			w.resume(s)
		case opAbort:
			w.abort(s)
		case opStep:
			for i := 0; i <= arg && w.eng.Step(); i++ {
			}
		default:
			w.eng.RunFor(time.Duration(arg*40) * time.Microsecond)
		}
	}
	for round := 0; ; round++ {
		w.eng.Run()
		live := false
		for s := range w.slots {
			if w.slots[s].run != nil {
				live = true
				w.suspend(s)
				w.resume(s)
			}
		}
		if !live {
			return
		}
		if round == 100 {
			w.t.Fatal("live runs never finish")
		}
	}
}

// Recycled Runs must be indistinguishable from fresh ones: the same op
// dispatches, launches and kernel spans, and the same onDone and drain
// order, under any interleaving of starts, suspends, resumes and aborts.
// A task, kernel or Send left over from a suspension or an earlier life
// firing into a recycled Run would change the kernel sequence (or fire a
// stale onDone, which start rejects).
func FuzzRunRecycleMatchesFresh(f *testing.F) {
	all := func(kind int) []byte {
		var ops []byte
		for s := 0; s < recycleSlots; s++ {
			ops = append(ops, op(kind, s))
		}
		return ops
	}
	// Churn: every slot starts, finishes and starts again, so each
	// subgraph's free list holds one or two Runs.
	churn := append(all(opStart), op(opWait, 31), op(opWait, 31))
	churn = append(append(churn, all(opStart)...), op(opWait, 31), op(opWait, 31))
	f.Add(append(churn, all(opStart)...))
	// Suspend both gpu:0 stages mid-kernel, resume once drained, then let
	// them finish and start again on the recycled Runs.
	f.Add([]byte{op(opStart, 1), op(opStart, 3), op(opStep, 12), op(opSuspend, 1), op(opStep, 4),
		op(opResume, 1), op(opWait, 10), op(opResume, 1), op(opSuspend, 3), op(opWait, 31),
		op(opResume, 3), op(opWait, 31), op(opStart, 1), op(opStart, 3), op(opStep, 20),
		op(opSuspend, 1), op(opWait, 3), op(opResume, 1), op(opWait, 31), op(opStart, 1)})
	// Suspend the CPU stage while its Sends are on the copy engines, and
	// restart it right after it finishes: stale transfers and tasks must
	// not reach the next life.
	f.Add([]byte{op(opStart, 4), op(opStep, 4), op(opSuspend, 4), op(opResume, 4), op(opWait, 15), op(opStart, 0)})
	f.Add([]byte{op(opStart, 0), op(opWait, 9), op(opSuspend, 0), op(opWait, 1), op(opResume, 0),
		op(opWait, 12), op(opSuspend, 0), op(opResume, 0), op(opWait, 2), op(opResume, 0),
		op(opWait, 31), op(opStart, 0), op(opStart, 4), op(opWait, 8), op(opSuspend, 4),
		op(opStep, 1), op(opResume, 4), op(opWait, 31), op(opStart, 0), op(opStart, 4)})
	// Aborts between lives: an aborted Run is never reused, and its
	// in-flight kernel still completes into it.
	f.Add([]byte{op(opStart, 1), op(opStart, 5), op(opStep, 8), op(opAbort, 1), op(opStart, 1),
		op(opStep, 6), op(opSuspend, 5), op(opAbort, 5), op(opStart, 5), op(opWait, 31),
		op(opStart, 1), op(opStart, 5), op(opStep, 30), op(opAbort, 5), op(opWait, 31), op(opStart, 5)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		recycled, fresh := newRecycleWorld(t, false), newRecycleWorld(t, true)
		recycled.replay(ops)
		fresh.replay(ops)
		if !slices.Equal(recycled.log, fresh.log) {
			t.Fatalf("callbacks differ:\nrecycled %v\nfresh    %v", recycled.log, fresh.log)
		}
		got, want := recycled.rec.Events(), fresh.rec.Events()
		if len(got) != len(want) {
			t.Fatalf("%d events with recycling, %d fresh", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d: recycled %+v, fresh %+v", i, got[i], want[i])
			}
		}
	})
}

// The lifecycle rule: a Run is reused only once it finished and its
// onDone returned; an aborted Run is never reused.
func TestRunRecycledOnlyAfterFinish(t *testing.T) {
	w := newRecycleWorld(t, false)
	sub := w.subs[1]
	cfg := Config{Pool: w.pool, CPUClass: w.machine.CPU, Machine: w.machine, Stream: w.streams[0]}
	start := func(onDone func()) *Run {
		r, err := Start(w.eng, sub, cfg, onDone)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first := start(nil)
	w.eng.Run()
	if !first.Done() {
		t.Fatal("first run did not finish")
	}
	if again := start(nil); again != first {
		t.Fatal("a finished Run was not reused")
	}
	w.eng.Run()

	aborted := start(nil)
	w.eng.Step()
	aborted.Abort()
	w.eng.Run()
	if next := start(nil); next == aborted {
		t.Fatal("an aborted Run was reused")
	}
	w.eng.Run()

	// A Start from inside onDone gets another Run: the finishing one is
	// still its owner's until onDone returns.
	var inner *Run
	outer := start(func() { inner = start(nil) })
	w.eng.Run()
	if inner == nil || inner == outer {
		t.Fatalf("Start inside onDone returned %p, the finishing Run is %p", inner, outer)
	}
	if next := start(nil); next != outer && next != inner {
		t.Fatal("the Runs that finished were not reused")
	}
}
