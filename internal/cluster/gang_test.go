package cluster

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/harness"
	"switchflow/internal/obs"
	"switchflow/internal/topology"
	"switchflow/internal/trace"
	"switchflow/internal/workload"
)

func gangCfg(t *testing.T, name, model string, replicas int) workload.Config {
	t.Helper()
	cfg := trainCfg(t, name, model)
	cfg.Gang = true
	cfg.Replicas = replicas
	return cfg
}

// v4 builds the 4-GPU class list of the NVLink testbed nodes.
func v4() []device.GPUClass {
	return []device.GPUClass{device.ClassV100, device.ClassV100, device.ClassV100, device.ClassV100}
}

func TestGangPlacementAllOrNothing(t *testing.T) {
	c := NewNVLink(Collocate{}, 1, 2, v4()...)
	c.Record(obs.KindGangPlace)
	g1 := c.Submit(0, gangCfg(t, "g1", "ResNet50", 2))
	g2 := c.Submit(0, gangCfg(t, "g2", "ResNet50", 2))
	g3 := c.Submit(0, gangCfg(t, "g3", "ResNet50", 2))
	c.RunUntil(time.Second)

	if !g1.Placed || !g2.Placed {
		t.Fatalf("full slots exist; placements g1=%v g2=%v", g1.Placed, g2.Placed)
	}
	if got := g1.Where.String(); got != "node0/gpus:0+1" {
		t.Fatalf("g1 at %s, want the first NVLink island node0/gpus:0+1", got)
	}
	if got := g2.Where.String(); got != "node0/gpus:2+3" {
		t.Fatalf("g2 at %s, want the second NVLink island node0/gpus:2+3", got)
	}
	// No room for a third gang: it waits whole. A partial gang must never
	// exist — an unplaced gang has no Job, no Placement, no GPUs.
	if g3.Placed || g3.Job != nil || len(g3.Where.GPUs) != 0 {
		t.Fatalf("g3 partially placed: %+v", g3)
	}
	if c.GangQueued() != 1 || waiting(c) != 1 {
		t.Fatalf("GangQueued=%d Queued=%d, want 1/1", c.GangQueued(), waiting(c))
	}
	for _, e := range c.Events() {
		if e.Kind == obs.KindGangPlace && e.Count != 2 {
			t.Fatalf("GangPlace with Count=%d, want full width 2: %+v", e.Count, e)
		}
	}

	// Freeing a slot admits the queued gang at the stop (whole, again).
	c.Stop(g1)
	if !g3.Placed {
		t.Fatal("queued gang not placed after a slot freed")
	}
	if got := g3.Where.String(); got != "node0/gpus:0+1" {
		t.Fatalf("g3 at %s, want the freed island node0/gpus:0+1", got)
	}
}

// With the first island half-occupied, the packer must jump to the
// intact island {2,3} rather than straddle the PCIe switch with {1,2} —
// the modeled all-reduce on NVLink is measurably cheaper.
func TestGangPlacementPrefersNVLinkContiguous(t *testing.T) {
	c := NewNVLink(Collocate{}, 1, 2, v4()...)
	c.Record(obs.KindGangPlace)
	solo := c.Submit(0, trainCfg(t, "solo", "MobileNetV2"))
	gang := c.Submit(0, gangCfg(t, "gang", "VGG16", 2))
	c.RunUntil(time.Second)
	if !solo.Placed || solo.Where.GPU != 0 {
		t.Fatalf("solo trainer at %v, want node0/gpu:0", solo.Where)
	}
	if !gang.Placed {
		t.Fatal("gang not placed")
	}
	if got := gang.Where.String(); got != "node0/gpus:2+3" {
		t.Fatalf("gang at %s, want the intact NVLink island node0/gpus:2+3", got)
	}
	events := c.Events()
	if len(events) != 1 {
		t.Fatalf("want exactly one GangPlace event, got %d", len(events))
	}
	nv := c.Nodes()[0].Machine().Fabric()
	if g := gang.Where.GPUs; nv.Kind(g[0], g[1]) != topology.NVLink {
		t.Fatalf("gang slot %v is not NVLink-contiguous", gang.Where.GPUs)
	}
	// The priced slot must beat the straddling alternative it rejected.
	chosen, err := nv.RingCost(gang.Where.GPUs, gang.Cfg.Model.ParamBytes())
	if err != nil {
		t.Fatal(err)
	}
	straddle, err := nv.RingCost([]int{1, 2}, gang.Cfg.Model.ParamBytes())
	if err != nil {
		t.Fatal(err)
	}
	if chosen >= straddle {
		t.Fatalf("chosen slot costs %v, straddling slot %v; NVLink must win", chosen, straddle)
	}
}

func TestGangQueueDisciplines(t *testing.T) {
	// One 2-GPU node: gang A holds the only slot; B (huge, first), C
	// (small), and D (high priority) queue behind it. The queue is FIFO,
	// so the oldest gang, B, wins the slot when A stops, whatever its
	// size or priority.
	c := NewNVLink(Collocate{}, 1, 2, device.ClassV100, device.ClassV100)
	a := c.Submit(0, gangCfg(t, "a", "ResNet50", 2))
	b := c.Submit(0, gangCfg(t, "b", "VGG16", 2))
	cc := c.Submit(0, gangCfg(t, "c", "MobileNetV2", 2))
	d := gangCfg(t, "d", "ResNet50", 2)
	d.Priority = 9
	dd := c.Submit(0, d)
	c.RunUntil(time.Second)
	if !a.Placed || c.GangQueued() != 3 {
		t.Fatalf("setup: a placed=%v queued=%d, want true/3", a.Placed, c.GangQueued())
	}
	c.Stop(a)
	got := "none"
	for _, h := range []*JobHandle{b, cc, dd} {
		if h.Placed {
			got = h.Cfg.Name
			break
		}
	}
	if got != "b" {
		t.Fatalf("FIFO admitted %q, want the oldest gang b", got)
	}
}

// gangFleetRun drives a fleet where gangs are placed, queued, AND
// preempted: two NVLink nodes, three 2-replica gangs (the third queues
// until capacity frees), and high-priority inference collocated onto the
// gang GPUs so gang preemption fires.
func runGangFleet(t *testing.T) fleetRun {
	t.Helper()
	c := NewNVLink(Collocate{}, 2, 2, v4()...)
	c.Record()
	var handles []*JobHandle
	handles = append(handles,
		c.Submit(0, gangCfg(t, "g-vgg", "VGG16", 2)),
		c.Submit(0, gangCfg(t, "g-res", "ResNet50", 2)),
		c.Submit(time.Second, gangCfg(t, "g-inc", "InceptionV3", 4)),
		c.Submit(2*time.Second, gangCfg(t, "g-late", "ResNet50", 4)))
	for i, model := range []string{"MobileNetV2", "ResNet50"} {
		cfg := serveCfg(t, "s-"+model, model)
		cfg.PoissonArrivals = true
		cfg.ArrivalSeed = int64(700 + i)
		handles = append(handles, c.Submit(time.Duration(i)*time.Second, cfg))
	}
	c.RunUntil(8 * time.Second)

	run := fleetRun{events: c.Events()}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, trace.Spans(run.events)); err != nil {
		t.Fatal(err)
	}
	run.traceJSON = buf.Bytes()
	for _, h := range handles {
		if !h.Placed {
			run.placements = append(run.placements, "queued")
			continue
		}
		run.placements = append(run.placements, h.Where.String())
		run.iterations = append(run.iterations, h.Job.Iterations)
		run.latencies = append(run.latencies, h.Job.Latencies.Count())
	}
	return run
}

// TestGangFleetSerialParallelIdentical is the gang-placement determinism
// proof: with gangs queued and preempted across the fleet, the merged
// event stream and trace bytes must be identical on one worker or eight.
func TestGangFleetSerialParallelIdentical(t *testing.T) {
	prev := harness.SetParallelism(1)
	serial := runGangFleet(t)
	harness.SetParallelism(8)
	parallel := runGangFleet(t)
	harness.SetParallelism(prev)

	var places, preempts, resumes int
	for _, e := range serial.events {
		switch e.Kind {
		case obs.KindGangPlace:
			places++
		case obs.KindGangPreempt:
			preempts++
		case obs.KindGangResume:
			resumes++
		}
	}
	if places == 0 || preempts == 0 || resumes == 0 {
		t.Fatalf("scenario must exercise gang place/preempt/resume, got %d/%d/%d",
			places, preempts, resumes)
	}
	if !reflect.DeepEqual(serial.events, parallel.events) {
		t.Fatalf("merged event streams differ: %d vs %d events", len(serial.events), len(parallel.events))
	}
	if !bytes.Equal(serial.traceJSON, parallel.traceJSON) {
		t.Fatal("trace bytes differ between serial and parallel gang runs")
	}
	if !reflect.DeepEqual(serial.placements, parallel.placements) {
		t.Fatalf("placements differ: %v vs %v", serial.placements, parallel.placements)
	}
	if !reflect.DeepEqual(serial.iterations, parallel.iterations) {
		t.Fatalf("iterations differ: %v vs %v", serial.iterations, parallel.iterations)
	}
}
