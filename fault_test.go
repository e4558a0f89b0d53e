package switchflow

import (
	"strings"
	"testing"
	"time"
)

// TestFaultPlanGPUOutOfRange: every policy rejects a fault that targets a
// GPU the machine lacks, instead of panicking or counting a fault that
// touched nothing.
func TestFaultPlanGPUOutOfRange(t *testing.T) {
	sim := NewSimulation(TwoGPUServer())
	events := []struct {
		name string
		add  func(p *FaultPlan, gpu int)
	}{
		{"lose", func(p *FaultPlan, gpu int) { p.LoseGPU(time.Second, gpu) }},
		{"transient", func(p *FaultPlan, gpu int) { p.TransientError(time.Second, gpu) }},
		{"degrade", func(p *FaultPlan, gpu int) { p.DegradeGPU(time.Second, gpu, 2, time.Second) }},
	}
	for _, policy := range []Policy{PolicySwitchFlow, PolicyThreadedTF, PolicyTimeSlice, PolicyMPS} {
		for _, gpu := range []int{-1, sim.GPUCount()} {
			for _, ev := range events {
				plan := NewFaultPlan().StallInputs(time.Second, time.Second)
				ev.add(plan, gpu)
				_, err := sim.NewScheduler(policy, WithFaultPlan(plan))
				if err == nil || !strings.Contains(err.Error(), "machine has 2 GPUs") {
					t.Errorf("%v, %s gpu %d: err = %v", policy, ev.name, gpu, err)
				}
			}
		}
	}
	if _, err := sim.NewScheduler(PolicySwitchFlow, WithFaultPlan(NewFaultPlan().LoseGPU(time.Second, 1))); err != nil {
		t.Errorf("in-range loss rejected: %v", err)
	}
}
