package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"switchflow/internal/scenario"
)

// lowerArgs parses swrun's command line and lowers it into a Scenario.
func lowerArgs(t *testing.T, args ...string) (scenario.Scenario, error) {
	t.Helper()
	fs := flag.NewFlagSet("swrun", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o.lower()
}

func TestParseJob(t *testing.T) {
	tests := []struct {
		give       string
		wantModel  string
		wantBatch  int
		wantPrio   int
		wantGPU    int
		wantTrain  bool
		wantClosed bool
		wantSat    bool
	}{
		{give: "train:VGG16:32:1", wantModel: "VGG16", wantBatch: 32, wantPrio: 1, wantTrain: true},
		{give: "serve:ResNet50:1:2", wantModel: "ResNet50", wantBatch: 1, wantPrio: 2, wantClosed: true},
		{give: "infer:MobileNetV2:128", wantModel: "MobileNetV2", wantBatch: 128, wantSat: true},
		{give: "train:ResNet50:16:1@1", wantModel: "ResNet50", wantBatch: 16, wantPrio: 1, wantGPU: 1, wantTrain: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			req, err := parseJob(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if req.Model != tt.wantModel || req.Batch != tt.wantBatch ||
				req.Priority != tt.wantPrio || req.GPU != tt.wantGPU {
				t.Fatalf("req = %+v", req)
			}
			if req.Train != tt.wantTrain || req.ClosedLoop != tt.wantClosed || req.Saturated != tt.wantSat {
				t.Fatalf("mode flags = %+v", req)
			}
		})
	}
}

func TestParseJobErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"train:VGG16",
		"train:VGG16:x",
		"train:VGG16:32:y",
		"fly:VGG16:32",
		"train:VGG16:32:1@x",
	} {
		if _, err := parseJob(bad); err == nil {
			t.Errorf("parseJob(%q) accepted", bad)
		}
	}
}

// TestLowerFlags pins what the flags are shorthand for: swrun's own
// placement, serving and traffic policies become explicit JobRequest
// fields, and -drain/-resize/-lose-gpu become the ops and faults blocks.
func TestLowerFlags(t *testing.T) {
	trainer := scenario.JobRequest{Name: "train-ResNet50", Model: "ResNet50", Batch: 16, Train: true, Priority: 1}
	server := scenario.JobRequest{Name: "serve-ResNet50", Model: "ResNet50", Batch: 1, Priority: 2, ClosedLoop: true}
	with := func(req scenario.JobRequest, edit func(*scenario.JobRequest)) scenario.JobRequest {
		edit(&req)
		return req
	}
	tests := []struct {
		name string
		args []string
		want scenario.Scenario
	}{{
		name: "training falls back to every other GPU, then the CPU",
		args: []string{"-jobs", "train:ResNet50:16:1@1"},
		want: scenario.Scenario{Machine: "v100", Scheduler: "switchflow", DurationMillis: 30000,
			Jobs: []scenario.JobRequest{with(trainer, func(r *scenario.JobRequest) {
				r.GPU, r.FallbackGPUs, r.FallbackCPU = 1, []int{0, 2, 3}, true
			})}},
	}, {
		name: "serving gets no fallbacks without faults",
		args: []string{"-machine", "2gpu", "-jobs", "serve:ResNet50:1:2@1", "-for", "5s"},
		want: scenario.Scenario{Machine: "2gpu", Scheduler: "switchflow", DurationMillis: 5000,
			Jobs: []scenario.JobRequest{with(server, func(r *scenario.JobRequest) { r.GPU = 1 })}},
	}, {
		name: "serving gets GPU fallbacks under faults",
		args: []string{"-machine", "2gpu", "-jobs", "serve:ResNet50:1:2@1", "-for", "5s",
			"-fault-seed", "7", "-lose-gpu", "1@2500us", "-checkpoint-every", "2s"},
		want: scenario.Scenario{Machine: "2gpu", Scheduler: "switchflow", DurationMillis: 5000,
			Jobs: []scenario.JobRequest{with(server, func(r *scenario.JobRequest) { r.GPU, r.FallbackGPUs = 1, []int{0} })},
			Faults: &scenario.FaultsRequest{Seed: 7, CheckpointEveryMillis: 2000,
				LoseGPUs: []scenario.LoseGPURequest{{GPU: 1, AtMillis: 2.5}}}},
	}, {
		name: "-checkpoint-every alone asks for no faults",
		args: []string{"-machine", "tx2", "-jobs", "serve:ResNet50:1:2", "-checkpoint-every", "2s"},
		want: scenario.Scenario{Machine: "tx2", Scheduler: "switchflow", DurationMillis: 30000,
			Jobs: []scenario.JobRequest{server}},
	}, {
		name: "-vnodes replaces @gpu and the fallbacks",
		args: []string{"-machine", "2gpu", "-jobs", "train:ResNet50:16:1@1,serve:ResNet50:1:2", "-vnodes", "0,1", "-gang", "2"},
		want: scenario.Scenario{Machine: "2gpu", Scheduler: "switchflow", DurationMillis: 30000,
			Jobs: []scenario.JobRequest{
				with(trainer, func(r *scenario.JobRequest) { r.VNodes, r.Gang = []int{0, 1}, true }),
				server,
			}},
	}, {
		name: "-gang N works without -vnodes",
		args: []string{"-machine", "nvlink", "-jobs", "train:ResNet50:16:1@2", "-gang", "2"},
		want: scenario.Scenario{Machine: "nvlink", Scheduler: "switchflow", DurationMillis: 30000,
			Jobs: []scenario.JobRequest{with(trainer, func(r *scenario.JobRequest) { r.GPU, r.Gang, r.Replicas = 2, true, 2 })}},
	}, {
		name: "-serve-every makes serve jobs open-loop, exactly",
		args: []string{"-machine", "tx2", "-jobs", "serve:ResNet50:1:2,infer:MobileNetV2:8", "-serve-every", "2500us",
			"-poisson", "-arrival-seed", "3", "-slo", "200ms", "-max-batch", "4", "-batch-wait", "1001us"},
		want: scenario.Scenario{Machine: "tx2", Scheduler: "switchflow", DurationMillis: 30000,
			Jobs: []scenario.JobRequest{
				with(server, func(r *scenario.JobRequest) {
					r.ClosedLoop, r.ServeEveryMS, r.PoissonArrivals, r.ArrivalSeed = false, 2.5, true, 3
					r.SLOMillis, r.MaxBatch, r.BatchWaitMillis = 200, 4, 1.001
				}),
				{Name: "infer-MobileNetV2", Model: "MobileNetV2", Batch: 8, Saturated: true},
			}},
	}, {
		name: "traffic tenants keep -max-batch and -batch-wait",
		args: []string{"-machine", "tx2", "-jobs", "serve:ResNet50:1:2", "-traffic", "200", "-clients", "5000",
			"-diurnal", "60s/0.35", "-spike", "6@20s/3s/8s/4s", "-slo", "200ms", "-max-batch", "4", "-batch-wait", "2ms"},
		want: scenario.Scenario{Machine: "tx2", Scheduler: "switchflow", DurationMillis: 30000,
			Jobs: []scenario.JobRequest{with(server, func(r *scenario.JobRequest) {
				r.SLOMillis, r.MaxBatch, r.BatchWaitMillis = 200, 4, 2
			})},
			Traffic: &scenario.TrafficRequest{RPS: 200, Clients: 5000, Seed: 1, DiurnalMillis: 60000, DiurnalMin: 0.35,
				Spikes: []scenario.SpikeRequest{{StartMillis: 20000, RampMillis: 3000, HoldMillis: 8000, DecayMillis: 4000, Magnitude: 6}}}},
	}, {
		name: "-drain and -resize become ops, drains first",
		args: []string{"-machine", "2gpu", "-jobs", "train:ResNet50:16:1", "-vnodes", "0",
			"-resize", "train-ResNet50=2@10s", "-drain", "0@20s,1@5s"},
		want: scenario.Scenario{Machine: "2gpu", Scheduler: "switchflow", DurationMillis: 30000,
			Jobs: []scenario.JobRequest{with(trainer, func(r *scenario.JobRequest) { r.VNodes = []int{0} })},
			Ops: []scenario.OpRequest{
				{AtMillis: 20000, Op: "drain", GPU: 0},
				{AtMillis: 5000, Op: "drain", GPU: 1},
				{AtMillis: 10000, Op: "resize", Job: "train-ResNet50", VNodes: 2},
			}},
	}}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := lowerArgs(t, tt.args...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tt.want) {
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(tt.want)
				t.Fatalf("lowered to\n%s\nwant\n%s", gotJSON, wantJSON)
			}
		})
	}
}

func TestLowerFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-traffic", "10", "-serve-every", "1s"},
		{"-machine", "abacus"},
		{"-jobs", "fly:VGG16:32"},
		{"-lose-gpu", "0"},
		{"-lose-gpu", "x@1s"},
		{"-drain", "0@soon"},
		{"-resize", "train-ResNet50"},
		{"-resize", "train-ResNet50=x@1s"},
		{"-vnodes", "a"},
		{"-traffic", "10", "-diurnal", "60s"},
		{"-traffic", "10", "-spike", "6@20s/3s/8s"},
	} {
		if _, err := lowerArgs(t, args...); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

// TestLoweredScenarioRoundTrips proves a lowered Scenario is fully
// serializable: written to JSON and read back with scenario.Parse, it is
// the same value and runs to the same result. The flag sets are the
// README's, plus sub-millisecond serving durations.
func TestLoweredScenarioRoundTrips(t *testing.T) {
	for _, tt := range []struct{ name, args string }{
		{"elastic", "-machine 2gpu -jobs train:ResNet50:16:1 -vnodes 0 -resize train-ResNet50=2@10s -drain 0@20s -for 60s"},
		{"gang", "-machine nvlink -jobs train:ResNet50:32:1 -gang 2 -for 30s"},
		{"serving", "-jobs serve:ResNet50:1:2 -serve-every 10ms -poisson -slo 200ms -max-batch 8 -batch-wait 5ms -for 30s"},
		{"traffic", "-jobs serve:ResNet50:1:2,serve:VGG16:1:2 -traffic 200 -diurnal 60s/0.35 -spike 6@20s/3s/8s/4s " +
			"-slo 200ms -max-batch 4 -batch-wait 2ms -for 60s"},
		{"collocate", "-machine 2gpu -sched switchflow -jobs train:ResNet50:32:1@1,train:VGG16:32:2@1 -for 30s"},
		{"lose-gpu", "-machine 2gpu -jobs serve:ResNet50:1:2@0,train:VGG16:16:1@1 -lose-gpu 0@10s -for 30s"},
		{"sub-millisecond", "-jobs serve:ResNet50:1:2 -serve-every 2500us -batch-wait 1001us -max-batch 4 -for 3s"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			sc, err := lowerArgs(t, strings.Fields(tt.args)...)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := scenario.Parse(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parsed, sc) {
				t.Fatalf("JSON round trip changed the scenario:\n%s", raw)
			}
			direct, err := scenario.Run(sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			viaJSON, err := scenario.Run(parsed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, viaJSON) {
				t.Fatalf("results differ:\ndirect:    %+v\nvia JSON:  %+v", direct, viaJSON)
			}
		})
	}
}

func TestMachineSpecNames(t *testing.T) {
	// The -machine flag's names, as documented in its usage.
	for _, name := range []string{"v100", "nvlink", "2gpu", "tx2", "V100", "GTX 1080 Ti", ""} {
		if _, err := scenario.MachineSpec(name); err != nil {
			t.Errorf("MachineSpec(%q): %v", name, err)
		}
	}
	if _, err := scenario.MachineSpec("abacus"); err == nil {
		t.Error("MachineSpec(abacus) accepted")
	}
}
