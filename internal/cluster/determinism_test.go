package cluster

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/harness"
	"switchflow/internal/obs"
	"switchflow/internal/trace"
)

// fleetRun captures everything observable about one sharded fleet run:
// the merged event stream, the Chrome-trace bytes rendered from it, and
// the per-job progress counters.
type fleetRun struct {
	events     []obs.Event
	traceJSON  []byte
	iterations []int
	latencies  []int
	placements []string
}

func runShardedFleet(t *testing.T) fleetRun {
	t.Helper()
	c := New(Collocate{}, 3, device.ClassV100, device.ClassV100)
	c.Record()
	var handles []*JobHandle
	for i, model := range []string{"ResNet50", "VGG16", "InceptionV3"} {
		handles = append(handles, c.Submit(time.Duration(i)*2*time.Second, trainCfg(t, "t-"+model, model)))
	}
	for i, model := range []string{"MobileNetV2", "ResNet50", "DenseNet121", "NASNetMobile"} {
		cfg := serveCfg(t, "s-"+model, model)
		cfg.PoissonArrivals = true
		cfg.ArrivalSeed = int64(300 + i)
		handles = append(handles, c.Submit(time.Duration(i)*time.Second, cfg))
	}
	c.RunUntil(10 * time.Second)

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

// TestShardedFleetSerialParallelIdentical is the cluster-level epoch-
// barrier merge proof: the merged obs stream, the rendered Chrome trace
// bytes, and every per-job metric must be identical whether the node
// engines advance on one worker or eight.
func TestShardedFleetSerialParallelIdentical(t *testing.T) {
	prev := harness.SetParallelism(1)
	serial := runShardedFleet(t)
	harness.SetParallelism(8)
	parallel := runShardedFleet(t)
	harness.SetParallelism(prev)

	if len(serial.events) == 0 {
		t.Fatal("fleet produced no events")
	}
	if !reflect.DeepEqual(serial.events, parallel.events) {
		t.Fatalf("merged event streams differ: %d vs %d events", len(serial.events), len(parallel.events))
	}
	if !bytes.Equal(serial.traceJSON, parallel.traceJSON) {
		t.Fatal("Chrome trace bytes differ between serial and parallel runs")
	}
	if !reflect.DeepEqual(serial.iterations, parallel.iterations) {
		t.Fatalf("training iterations differ: %v vs %v", serial.iterations, parallel.iterations)
	}
	if !reflect.DeepEqual(serial.latencies, parallel.latencies) {
		t.Fatalf("served request counts differ: %v vs %v", serial.latencies, parallel.latencies)
	}
	if !reflect.DeepEqual(serial.placements, parallel.placements) {
		t.Fatalf("placements differ: %v vs %v", serial.placements, parallel.placements)
	}
}

// TestMergedEventsOrdered pins the merged stream's ordering invariant:
// nondecreasing time; ties broken by node index then emit seq.
func TestMergedEventsOrdered(t *testing.T) {
	run := runShardedFleet(t)
	for i := 1; i < len(run.events); i++ {
		if run.events[i].Time < run.events[i-1].Time {
			t.Fatalf("event %d at %v precedes event %d at %v",
				i, run.events[i].Time, i-1, run.events[i-1].Time)
		}
	}
}

// TestOffEpochSubmissionPlacesAtNextBarrier documents the epoch
// quantization: a submission between barriers places at the next one.
func TestOffEpochSubmissionPlacesAtNextBarrier(t *testing.T) {
	c := New(FirstFit{}, 1, device.ClassV100)
	h := c.Submit(7*time.Millisecond, trainCfg(t, "t", "ResNet50"))
	c.RunUntil(time.Second)
	if !h.Placed {
		t.Fatal("job not placed")
	}
	if h.PlacedAt != 10*time.Millisecond {
		t.Fatalf("PlacedAt = %v, want next barrier 10ms", h.PlacedAt)
	}
	if d, ok := h.QueueDelay(); !ok || d != 3*time.Millisecond {
		t.Fatalf("QueueDelay = %v (ok=%v), want 3ms", d, ok)
	}
}
