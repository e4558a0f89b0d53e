// Preemption with migration (§3.3, Figure 7 e): a low-priority ResNet50
// trains on the fast RTX 2080 Ti until a high-priority VGG16 arrives. The
// ResNet50 is preempted, its weights stream to the GTX 1080 Ti over the
// peer PCIe path (Table 1), and it resumes there while VGG16 owns the
// 2080 Ti.
package main

import (
	"fmt"
	"log"
	"time"

	"switchflow"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sim := switchflow.NewSimulation(switchflow.TwoGPUServer())
	sched, err := sim.NewSwitchFlowScheduler()
	if err != nil {
		return err
	}

	low, err := sched.AddJob(switchflow.JobSpec{
		Name:     "resnet50-low",
		Model:    "ResNet50",
		Batch:    32,
		Train:    true,
		Priority: 1,
		Placement: switchflow.Placement{
			Device:    1, // the RTX 2080 Ti
			Fallbacks: []int{0},
			AllowCPU:  true,
		},
	})
	if err != nil {
		return err
	}
	sim.RunFor(5 * time.Second)
	soloIters := low.Iterations()
	fmt.Printf("t=%v  low job on %s: %d steps (%.1f img/s solo)\n",
		sim.Now(), sched.JobDeviceName(low), soloIters,
		low.Throughput(sim.Now()))

	high, err := sched.AddJob(switchflow.JobSpec{
		Name:      "vgg16-high",
		Model:     "VGG16",
		Batch:     32,
		Train:     true,
		Priority:  2,
		Placement: switchflow.Placement{Device: 1},
	})
	if err != nil {
		return err
	}
	arrival := sim.Now()
	sim.RunFor(30 * time.Second)
	window := sim.Now() - arrival

	fmt.Printf("t=%v  after high-priority arrival:\n", sim.Now())
	fmt.Printf("  preemptions=%d migrations=%d (grant p95 %v)\n",
		sched.Preemptions(), sched.Migrations(),
		sched.PreemptionP95().Round(time.Microsecond))
	fmt.Printf("  high job on gpu:1: %d steps, %.1f img/s\n",
		high.Iterations(), float64(high.Iterations()*32)/window.Seconds())
	fmt.Printf("  low job migrated to %s: %d more steps, %.1f img/s\n",
		sched.JobDeviceName(low), low.Iterations()-soloIters,
		float64((low.Iterations()-soloIters)*32)/window.Seconds())
	return nil
}
