package fault

import (
	"reflect"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/sim"
)

func TestRandomIsDeterministic(t *testing.T) {
	a := Random(7, time.Minute, 2)
	b := Random(7, time.Minute, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("the fault mix over a minute produced no events")
	}
	c := Random(8, time.Minute, 2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestSortedIsStableAndNonDestructive(t *testing.T) {
	var p Plan
	p.Transient(2*time.Second, 0)
	p.StallInputs(time.Second, 100*time.Millisecond)
	p.LoseGPU(time.Second, 1)
	got := p.Sorted()
	if got[0].Kind != KindInputStall || got[1].Kind != KindDeviceLost {
		t.Fatalf("same-instant events reordered: %v then %v", got[0].Kind, got[1].Kind)
	}
	if p.Events[0].Kind != KindTransient {
		t.Fatal("Sorted mutated the plan")
	}
}

func TestInjectorAppliesHardwareEffects(t *testing.T) {
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, device.ClassV100, device.ClassV100)
	var p Plan
	p.Degrade(time.Second, 1, 2.0, time.Second)
	p.LoseGPU(2*time.Second, 0)
	in := NewInjector(eng, machine, p)
	var seen []Kind
	in.Attach(handlerFunc(func(ev Event) { seen = append(seen, ev.Kind) }))
	in.Arm()

	// probe runs one solo 100ms kernel on GPU 1 and returns how long it
	// took: twice as long while the 2x degrade window is open.
	probe := func(at time.Duration) time.Duration {
		eng.RunUntil(at)
		var end time.Duration
		machine.GPU(1).Submit(device.Kernel{Name: "probe", Work: 100 * time.Millisecond,
			Occupancy: 1, OnDone: func() { end = eng.Now() }})
		eng.RunUntil(at + 400*time.Millisecond)
		return end - at
	}
	if got := probe(1200 * time.Millisecond); got != 200*time.Millisecond {
		t.Fatalf("kernel on the degraded GPU took %v, want 200ms", got)
	}
	if got := probe(3 * time.Second); got != 100*time.Millisecond {
		t.Fatalf("kernel took %v after the degrade window, want 100ms: the GPU did not heal", got)
	}
	eng.RunUntil(5 * time.Second)
	if !machine.GPU(0).Failed() {
		t.Fatal("lost GPU not marked failed")
	}
	if machine.Healthy(device.GPUID(0)) {
		t.Fatal("machine reports the lost GPU healthy")
	}
	if !machine.Healthy(device.GPUID(1)) {
		t.Fatal("machine reports the healed GPU unhealthy")
	}
	want := []Kind{KindDegraded, KindDeviceLost}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("handler saw %v, want %v", seen, want)
	}
}

type handlerFunc func(Event)

func (f handlerFunc) HandleFault(ev Event) { f(ev) }
