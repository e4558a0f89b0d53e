package models

import (
	"math"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/graph"
)

// graphSize sums FLOPs, parameter bytes and weight tensors over nodes. A
// node with parameters but no WeightVars holds one tensor.
func graphSize(nodes []*graph.Node) (flops float64, params int64, tensors int) {
	for _, n := range nodes {
		flops += n.FLOPs
		params += n.ParamBytes
		switch {
		case n.WeightVars > 0:
			tensors += n.WeightVars
		case n.ParamBytes > 0:
			tensors++
		}
	}
	return flops, params, tensors
}

func TestBuildInferenceGraph(t *testing.T) {
	spec, err := ByName("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(BuildConfig{Batch: 32, Device: device.GPUID(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 32 preprocess shards + iterator + one node per layer.
	want := 32 + 1 + len(spec.Layers)
	if g.Len() != want {
		t.Fatalf("graph has %d nodes, want %d", g.Len(), want)
	}
	// Params preserved through the build.
	_, params, tensors := graphSize(g.Nodes())
	if params != spec.ParamBytes() {
		t.Fatalf("graph param bytes = %d, spec %d", params, spec.ParamBytes())
	}
	if tensors != spec.WeightVars() {
		t.Fatalf("graph weight tensors = %d, spec WeightVars %d", tensors, spec.WeightVars())
	}
}

func TestBuildTrainingGraphAddsBackward(t *testing.T) {
	spec, _ := ByName("MobileNetV2")
	infer, err := spec.Build(BuildConfig{Batch: 8, Device: device.GPUID(0)})
	if err != nil {
		t.Fatal(err)
	}
	train, err := spec.Build(BuildConfig{Batch: 8, Training: true, Device: device.GPUID(0)})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() <= infer.Len() {
		t.Fatalf("training graph (%d nodes) not larger than inference (%d)",
			train.Len(), infer.Len())
	}
	// Training ~ 3x forward FLOPs (fwd + 2x bwd), plus updates.
	trainFLOPs, _, _ := graphSize(train.Nodes())
	inferFLOPs, _, _ := graphSize(infer.Nodes())
	ratio := trainFLOPs / inferFLOPs
	if ratio < 2.8 || ratio > 3.6 {
		t.Fatalf("train/infer FLOPs ratio = %.2f, want ~3", ratio)
	}
}

func TestBuildPartitionsIntoCPUAndGPU(t *testing.T) {
	spec, _ := ByName("VGG16")
	g, err := spec.Build(BuildConfig{Batch: 16, Device: device.GPUID(1)})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("got %d subgraphs, want 2", len(subs))
	}
	if subs[0].Device != device.CPUID || subs[1].Device != device.GPUID(1) {
		t.Fatalf("subgraphs on %v and %v", subs[0].Device, subs[1].Device)
	}
	// All weights live on the GPU side.
	if _, got, _ := graphSize(subs[1].Nodes); got != spec.ParamBytes() {
		t.Fatalf("GPU subgraph params = %d, want %d", got, spec.ParamBytes())
	}
}

func TestBuildAllCPUGraphHasSingleSubgraph(t *testing.T) {
	spec, _ := ByName("ResNet50")
	g, err := spec.Build(BuildConfig{Batch: 4, Training: true, Device: device.CPUID})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Device != device.CPUID {
		t.Fatalf("CPU-only build produced %d subgraphs", len(subs))
	}
}

func TestBuildShardCPUTimeCoversBatch(t *testing.T) {
	spec, _ := ByName("ResNet50")
	perImage := 10 * time.Millisecond
	g, err := spec.Build(BuildConfig{
		Batch: 100, PreprocShards: 8, PerImageCPU: perImage,
		Device: device.GPUID(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	shards := 0
	for _, n := range g.Nodes() {
		if n.Op == graph.OpPreprocess {
			total += n.CPUTime
			shards++
		}
	}
	if shards != 8 {
		t.Fatalf("got %d shards, want 8", shards)
	}
	if want := 100 * perImage; total != want {
		t.Fatalf("total shard CPU time = %v, want %v", total, want)
	}
}

// TestBuildShardCPUTimeSaturates: a shard whose batch times its per-image
// cost passes the largest duration costs the largest duration, where the
// integer product used to wrap.
func TestBuildShardCPUTimeSaturates(t *testing.T) {
	spec, _ := ByName("ResNet50")
	g, err := spec.Build(BuildConfig{
		Batch: 1 << 40, PreprocShards: 1, PerImageCPU: 100 * time.Millisecond,
		Device: device.GPUID(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if n.Op == graph.OpPreprocess && n.CPUTime != math.MaxInt64 {
			t.Errorf("shard CPU time = %d, want the largest duration", n.CPUTime)
		}
	}
}

func TestBuildRejectsZeroBatch(t *testing.T) {
	spec, _ := ByName("ResNet50")
	if _, err := spec.Build(BuildConfig{Batch: 0, Device: device.GPUID(0)}); err == nil {
		t.Fatal("Build with batch 0 should fail")
	}
}

func TestDefaultPerImageCPUScalesWithResolution(t *testing.T) {
	small := DefaultPerImageCPU(224, 224)
	large := DefaultPerImageCPU(331, 331)
	if large <= small {
		t.Fatalf("331px cost %v not above 224px cost %v", large, small)
	}
	if small != 100*time.Millisecond {
		t.Fatalf("base cost = %v, want 100ms", small)
	}
}
