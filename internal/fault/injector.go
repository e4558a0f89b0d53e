package fault

import (
	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
)

// Handler reacts to an injected fault after the device-level effect has
// been applied. Schedulers implement it: they abort executor runs on the
// lost device, migrate or crash the victim jobs, and account recovery
// metrics.
type Handler interface {
	HandleFault(Event)
}

// Injector schedules a Plan's events on the engine. For each event it
// first applies the hardware effect (GPU.Fail, GPU.Degrade/Heal — input
// stalls have none), then emits one KindFaultInject on the machine's bus,
// then notifies handlers in attach order, so a handler always observes
// the post-fault hardware state and every scheduler's fault appears on
// the bus the same way.
type Injector struct {
	eng      *sim.Engine
	machine  *device.Machine
	plan     Plan
	handlers []Handler
	armed    bool
}

// NewInjector builds an injector over the machine. Call Attach for every
// scheduler that should observe faults, then Arm once.
func NewInjector(eng *sim.Engine, machine *device.Machine, plan Plan) *Injector {
	return &Injector{eng: eng, machine: machine, plan: plan}
}

// Attach registers a handler. Handlers attached after Arm still receive
// events that have not fired yet.
func (in *Injector) Attach(h Handler) { in.handlers = append(in.handlers, h) }

// Arm schedules every plan event. Events in the past (relative to the
// engine's current time) fire immediately in plan order.
func (in *Injector) Arm() {
	if in.armed {
		return
	}
	in.armed = true
	for _, ev := range in.plan.Sorted() {
		ev := ev
		at := ev.At
		if at < in.eng.Now() {
			at = in.eng.Now()
		}
		in.eng.Schedule(at, func() { in.fire(ev) })
	}
}

func (in *Injector) fire(ev Event) {
	switch ev.Kind {
	case KindDeviceLost:
		if gpu := in.machine.GPU(ev.Device.Index); gpu != nil {
			gpu.Fail()
		}
	case KindDegraded:
		if gpu := in.machine.GPU(ev.Device.Index); gpu != nil && !gpu.Failed() {
			gpu.Degrade(ev.Factor)
			if ev.Duration > 0 {
				in.eng.After(ev.Duration, func() {
					if !gpu.Failed() {
						gpu.Heal()
					}
				})
			}
		}
	case KindTransient, KindInputStall:
		// No hardware effect; the schedulers decide what breaks.
	}
	dev := ""
	if ev.Device != (device.ID{}) {
		dev = ev.Device.String()
	}
	in.machine.Bus().Emit(obs.Event{
		Kind:   obs.KindFaultInject,
		Ctx:    -1,
		Device: dev,
		Name:   ev.Kind.String(),
	})
	for _, h := range in.handlers {
		h.HandleFault(ev)
	}
}
